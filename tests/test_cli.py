"""CLI tests: parsing, outputs, exit codes, determinism, custom configs."""
import json
import math
import os

import pytest

from twistlab.cli import UsageError, main, parse_grid, parse_int_range
from twistlab.presets import preset_config


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGridParsing:
    def test_dyadic(self):
        assert parse_grid("2^3:2^5") == [8.0, 16.0, 32.0]

    def test_geometric(self):
        assert parse_grid("50:200:geom2") == [50.0, 100.0, 200.0]

    def test_linear(self):
        assert parse_grid("0:10:3") == [0.0, 5.0, 10.0]

    def test_single(self):
        assert parse_grid("42.5") == [42.5]

    def test_bad(self):
        with pytest.raises(UsageError):
            parse_grid("a:b")
        with pytest.raises(UsageError):
            parse_grid("1:2:geom0.5")

    def test_int_range(self):
        assert parse_int_range("5:8") == [5, 6, 7, 8]
        assert parse_int_range("2:10:4") == [2, 6, 10]
        assert parse_int_range("7") == [7]


class TestDescribe:
    def test_zeta(self, capsys):
        code, out, _ = run(capsys, "describe", "--preset", "zeta")
        assert code == 0
        assert "d=1.0" in out
        assert "A=0.0" in out
        assert "C=0.5" in out
        assert "sigma_a=1.0" in out
        assert "pole_1=1.0+0.0i order=1" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "describe", "--preset", "delta",
                           "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["d"] == "2.0"


class TestExitCodes:
    def test_usage_missing_flag(self, capsys):
        code, _, err = run(capsys, "eval", "--preset", "zeta", "--t", "30")
        assert code == 1

    def test_usage_unknown_preset(self, capsys):
        code, _, err = run(capsys, "describe", "--preset", "nope")
        assert code == 1

    def test_usage_no_instance(self, capsys):
        code, _, err = run(capsys, "describe")
        assert code == 1
        assert "preset" in err

    def test_computation_error_pole(self, capsys):
        code, _, err = run(capsys, "eval", "--preset", "zeta",
                           "--sigma", "1.0", "--t", "1e-9")
        assert code == 2
        assert "computation error" in err

    def test_computation_error_gamma_pole(self, capsys):
        code, _, err = run(capsys, "eval", "--preset", "zeta", "--sigma", "3",
                           "--t", "0", "--X", "1000")
        assert code == 2
        assert "computation error" in err

    def test_budget_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("TWISTLAB_BUDGET", "10")
        code, _, err = run(capsys, "transform", "--preset", "zeta",
                           "--m", "1", "--T-grid", "5", "--routes", "direct")
        assert code == 2

    def test_strict_certificate_failure(self, capsys, tmp_path):
        # the weight-12 certificate fails its lower bound (measured margin
        # ~0.97): --strict must exit 3
        out = tmp_path / "cert.csv"
        code, _, _ = run(capsys, "certify", "--preset", "delta", "--m", "1",
                         "--T-grid", "2^10:2^11", "--strict", "--out", str(out))
        assert code == 3
        assert out.exists()


class TestOutputs:
    def test_eval_csv_columns(self, capsys):
        code, out, _ = run(capsys, "eval", "--preset", "zeta", "--sigma", "0.5",
                           "--t", "30", "--X", "2000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# twistlab eval")
        assert "t,re,im,terms_used,tail_bound" in lines
        assert any(ln.startswith("30.0,") for ln in lines)

    def test_coeffs_single(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--preset", "zeta-sq", "--n", "12")
        assert code == 0
        assert "12,6.0,0.0" in out

    def test_gamma_check(self, capsys):
        code, out, _ = run(capsys, "gamma-check", "--preset", "zeta",
                           "--x", "0.6", "--t-grid", "100:200:2")
        assert code == 0
        assert "t,exact_re,exact_im,asym_re,asym_im,rel_err" in out

    def test_osc_modes(self, capsys):
        code, out, _ = run(capsys, "osc", "--d", "1", "--alpha", "6.283185307179586",
                           "--T", "3000", "--n", "6200:6600:200", "--mode", "both")
        assert code == 0
        assert "n,quad_re,quad_im,sp_re,sp_im,abs_diff" in out

    def test_transform_ledger(self, capsys):
        code, out, _ = run(capsys, "transform", "--ledger")
        assert code == 0
        assert "kappa calibrated" in out

    def test_twist_scan_slope_trailer(self, capsys):
        code, out, _ = run(capsys, "twist-scan", "--preset", "zeta",
                           "--alpha", "auto", "--T-grid", "2^5:2^9")
        assert code == 0
        assert "# slope=" in out

    def test_summatory(self, capsys):
        code, out, _ = run(capsys, "summatory", "--preset", "zeta-shift-pair",
                           "--X-grid", "2^7:2^12")
        assert code == 0
        assert "X,sum" in out

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--preset", "zeta", "--n", "3",
                           "--format", "json")
        data = json.loads(out)
        assert data["rows"][0]["n"] == 3


class TestCustomConfig:
    def test_roundtrip_preset_config(self, tmp_path, capsys):
        cfg = preset_config("zeta-shift-pair")
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "describe", "--config", str(path))
        assert code == 0
        assert "d=2.0" in out
        code, out, _ = run(capsys, "coeffs", "--config", str(path), "--n", "6")
        assert code == 0
        assert "4.898979485566357" in out

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"name\": \"x\"}")
        code, _, err = run(capsys, "describe", "--config", str(path))
        assert code == 1


class TestDeterminism:
    COMMANDS = [
        ("describe-like", ["coeffs", "--preset", "delta", "--bulk", "40"]),
        ("eval", ["eval", "--preset", "zeta", "--sigma", "0.5",
                  "--t", "10:30:3", "--X", "2000"]),
        ("gamma", ["gamma-check", "--preset", "delta", "--x", "0.5",
                   "--t-grid", "50:400:4"]),
        ("twist", ["twist-scan", "--preset", "dirichlet-chi4", "--alpha", "auto",
                   "--T-grid", "2^5:2^9"]),
        ("summatory", ["summatory", "--preset", "zeta-scaled",
                       "--X-grid", "2^7:2^12"]),
        ("certify", ["certify", "--preset", "zeta", "--m", "1",
                     "--T-grid", "2^5:2^9"]),
        ("transform", ["transform", "--preset", "zeta", "--m", "1",
                       "--T-grid", "20", "--routes", "sum,fe"]),
    ]

    @pytest.mark.parametrize("name, argv", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_double_run_byte_identical(self, name, argv, tmp_path):
        out1 = tmp_path / "run1.csv"
        out2 = tmp_path / "run2.csv"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_bytes()) > 0
