"""CLI tests: parsing, outputs, exit codes, determinism, custom configs."""
import cmath
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import twistlab
from twistlab.cli import UsageError, main, parse_grid, parse_int_range
from twistlab.errors import PoleError, SectorError
from twistlab.evaluate import smoothed_value
from twistlab.gammafn import gamma_ratio_compare
from twistlab.model import SmoothingParams
from twistlab.presets import (PRESET_NAMES, get_preset, instance_from_config,
                              load_instance)
from twistlab.transforms import kappa

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: writes the BLAS thread count that numpy's bundled OpenBLAS reports (or
#: "unknown") to stderr, then runs the CLI on sys.argv[1:]; or, when that is
#: "values --out PATH", writes the bytes of one multi-t line-evaluator call
#: (zeta at X = 1e3, 5,282 terms, 400 t on [100, 140]) to PATH
BLAS_CHILD = """
import ctypes, glob, os, sys
import numpy
from twistlab.cli import main
threads = "unknown"
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        get = getattr(ctypes.CDLL(path), name, None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            threads = get()
            break
print(f"blas threads {threads}", file=sys.stderr)
if sys.argv[1] == "values":
    from twistlab.evaluate import SmoothedLineEvaluator
    from twistlab.model import SmoothingParams
    from twistlab.presets import get_preset
    line = SmoothedLineEvaluator(get_preset("zeta"), SmoothingParams(X=1e3))
    with open(sys.argv[3], "wb") as out:
        out.write(line.values(numpy.linspace(100.0, 140.0, 400)).tobytes())
    sys.exit(0)
sys.exit(main(sys.argv[1:]))
"""


def run_blas_child(argv, out, **env):
    """BLAS_CHILD on argv + ["--out", out] in a fresh process (the BLAS
    reads its settings once, at load time), with the variables in env set
    and those given as None unset: its stdout plus stderr and the bytes it
    wrote."""
    path = [str(Path(twistlab.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]
    child_env = {key: value for key, value in {**os.environ, **env}.items()
                 if value is not None}
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    proc = subprocess.run([sys.executable, "-c", BLAS_CHILD, *argv, "--out", str(out)],
                          env=child_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout + proc.stderr, out.read_bytes()


def without_columns(data, columns):
    """CSV output bytes with the named columns cut from the header row and
    from every row after it; the "#" meta lines are kept.  Each name must
    be a column."""
    rows, keep = [], None
    for line in data.decode().splitlines(keepends=True):
        if line.startswith("#"):
            rows.append(line)
            continue
        fields = line.rstrip("\n").split(",")
        if keep is None:
            assert set(columns) <= set(fields), (columns, fields)
            keep = [i for i, field in enumerate(fields) if field not in columns]
        rows.append(",".join(fields[i] for i in keep) + "\n")
    return "".join(rows).encode()


def numpy_blas():
    """The name of the BLAS numpy was built against, or "unknown"."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return "unknown"
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "unknown")


def _preset_config(name, Q, lam, mu, sigma_a, poles=()):
    """An inline config that restates one preset field for field."""
    return {"name": name, "lambda": lam, "mu": [[m, 0.0] for m in mu],
            "lambda_prime": [], "mu_prime": [], "Q": Q, "omega": [1.0, 0.0],
            "sigma_a": sigma_a,
            "poles": [{"location": [loc, 0.0], "order": len(lead),
                       "leading": [[c, 0.0] for c in lead]} for loc, lead in poles],
            "coefficients": {"kind": "preset", "name": name}}


PRESET_CONFIGS = {c["name"]: c for c in [
    _preset_config("zeta", 0.5641895835477563, [0.5], [0.0], 1.0, [(1.0, [1.0])]),
    _preset_config("zeta-doubled", 0.7978845608028654, [0.25, 0.25], [0.0, 0.5],
                   1.0, [(1.0, [1.0])]),
    _preset_config("dirichlet-chi4", 1.1283791670955126, [0.5], [0.5], 1.0),
    _preset_config("zeta-sq", 0.3183098861837907, [0.5, 0.5], [0.0, 0.0], 1.0,
                   [(1.0, [1.0, 1.1544313298030657])]),
    _preset_config("zeta-shift-pair", 0.3183098861837907, [0.5, 0.5], [0.25, -0.25],
                   1.5, [(0.5, [-0.5]), (1.5, [1.6449340668482264])]),
    _preset_config("zeta-scaled", 0.3183098861837907, [1.0], [-0.25], 0.75,
                   [(0.75, [0.5])]),
    _preset_config("delta", 0.15915494309189535, [1.0], [5.5], 1.0),
]}


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

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--preset", "zeta", "--bulk", "0"],
        ["coeffs", "--preset", "zeta", "--n", "0"],
        ["eval", "--preset", "zeta", "--sigma", "0.5", "--t", "30", "--X", "-1"],
        ["eval", "--preset", "zeta", "--sigma", "0.5", "--t", "20", "--X", "inf"],
        ["eval", "--preset", "zeta", "--sigma", "0.5", "--t", "30",
         "--epsilon", "1"],
        ["summatory", "--preset", "zeta", "--X-grid", "2^3:2^4"],
        ["transform", "--preset", "zeta", "--T-grid", "20", "--rho", "-1"],
        ["twist-scan", "--preset", "zeta", "--T-grid", "2^5:2^8", "--rho", "nan"],
        ["certify", "--preset", "zeta", "--T-grid", "2^5:2^8", "--rho", "0"],
        ["twist-scan", "--preset", "zeta", "--T-grid", "2^5:2^8", "--alpha", "nan"],
        ["twist-scan", "--preset", "zeta", "--T-grid", "2^5:2^8", "--alpha", "-3"],
        ["twist-scan", "--preset", "zeta", "--T-grid", "2^5:2^8", "--alpha", "0"],
        ["twist-scan", "--preset", "zeta", "--T-grid", "2^5:2^8", "--alpha", "inf"],
        ["eval", "--preset", "zeta", "--sigma", "0.5", "--t", "10", "--p", "inf"],
        ["transform", "--preset", "zeta", "--T-grid", "20", "--p", "1e9"],
        ["certify", "--preset", "zeta", "--T-grid", "inf"],
        ["twist-scan", "--preset", "zeta", "--T-grid", "inf"],
        ["summatory", "--preset", "zeta", "--X-grid", "inf"],
        ["transform", "--preset", "zeta", "--T-grid", "inf"],
        ["transform", "--preset", "zeta", "--T-grid", "50:inf:geom2"],
        ["eval", "--preset", "zeta", "--sigma", "0.5", "--t", "nan"],
        ["eval", "--preset", "zeta", "--sigma", "0.5", "--t", "10:nan:3"],
        ["eval", "--preset", "zeta", "--sigma", "nan", "--t", "10"],
        ["eval", "--preset", "zeta", "--sigma=-inf", "--t", "10"],
        ["gamma-check", "--preset", "zeta", "--x", "nan", "--t-grid", "20"],
        ["osc", "--d", "1", "--alpha", "6.28", "--T", "inf", "--n", "1:3"],
        ["certify", "--preset", "zeta", "--T-grid", "-1"],
        ["certify", "--preset", "zeta", "--T-grid", "0"],
        ["twist-scan", "--preset", "zeta", "--T-grid", "0:4:5"],
        ["transform", "--preset", "zeta", "--T-grid", "-5"],
        ["coeffs", "--preset", "zeta", "--bulk", "-3"],
        ["certify", "--preset", "zeta", "--m", "1", "--T-grid", "1e300"],
        ["transform", "--preset", "zeta", "--m", "1", "--T-grid", "1e300",
         "--routes", "sum,fe"],
    ], ids=["bulk-0", "n-0", "X-negative", "X-inf", "epsilon-1", "short-grid",
            "rho-negative", "rho-nan", "rho-0", "alpha-nan", "alpha-negative",
            "alpha-0", "alpha-inf", "p-inf", "p-1e9", "certify-T-inf",
            "twist-T-inf", "summatory-X-inf", "transform-T-inf",
            "transform-geom-inf", "eval-t-nan", "eval-linear-nan",
            "eval-sigma-nan", "eval-sigma-inf", "gamma-x-nan", "osc-T-inf",
            "certify-T-negative", "certify-T-0", "twist-T-0", "transform-T-negative",
            "bulk-negative", "certify-cutoff-overflow", "transform-cutoff-overflow"])
    def test_usage_out_of_range(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("usage error: ")
        if any("inf" in v or "nan" in v for v in argv):
            assert "must be finite" in err

    @pytest.mark.parametrize("grid", ["0", "-1", "0:4:5"])
    @pytest.mark.parametrize("command, flags", [
        ("eval", ["--sigma", "0.5", "--t"]),
        ("gamma-check", ["--x", "0.6", "--t-grid"]),
        ("transform", ["--T-grid"]),
        ("twist-scan", ["--T-grid"]),
        ("summatory", ["--X-grid"]),
        ("certify", ["--T-grid"]),
    ])
    def test_degenerate_grid_exits_cleanly(self, capsys, command, flags, grid):
        # a grid at or below zero is refused or computed, never a crash
        code, _, err = run(capsys, command, "--preset", "zeta", *flags, grid)
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    def test_refuses_overflowing_coefficients(self, capsys):
        code, out, err = run(capsys, "eval", "--preset", "zeta", "--sigma", "-300",
                             "--t", "30", "--p", "200", "--X", "1000")
        assert code == 1
        assert out == ""
        assert err == ("usage error: weighted coefficients a_n e^(-(n/X)^p) "
                       "n^(-sigma) at sigma=-300.0 are not finite, first at n=11\n")

    # gamma_ratio_compare refuses t <= 0, then a Gamma pole, then a t below
    # the sector threshold; the pole spec's threshold is 4, delta's 13
    @pytest.mark.parametrize("config, t, error, exit_code", [
        ("delta", 0.0, ValueError, 1),
        ("delta", -3.0, ValueError, 1),
        ({"name": "pole", "lambda": [1.0], "mu": [[0.0, -1.0]], "Q": 1.0,
          "omega": [1.0, 0.0], "sigma_a": 1.0, "coefficients": {"kind": "ones"}},
         1.0, PoleError, 2),
        ("delta", 5.0, SectorError, 2),
    ], ids=["t-0", "t-negative", "pole-before-sector", "sector"])
    def test_gamma_check_refusal_order(self, capsys, tmp_path, config, t, error,
                                       exit_code):
        if isinstance(config, str):
            L, instance = get_preset(config), ["--preset", config]
        else:
            path = tmp_path / "pole.json"
            path.write_text(json.dumps(config))
            L, instance = load_instance(str(path)), ["--config", str(path)]
        with pytest.raises(error):
            gamma_ratio_compare(L.fe.gamma, 2.0, t)
        code, _, _ = run(capsys, "gamma-check", *instance, "--x", "2.0",
                         "--t-grid", str(t))
        assert code == exit_code

    @pytest.mark.parametrize("argv", [
        ("coeffs", "--n", "20000000"),
        ("transform", "--m", "20000000", "--routes", "fe", "--T-grid", "20"),
        ("certify", "--m", "20000000", "--T-grid", "2^5:2^6"),
    ], ids=["coeffs-n", "transform-m", "certify-m"])
    def test_coefficient_past_the_table_cap(self, capsys, argv):
        # coefficient(n) reads bulk(n), so a_n for `coeffs --n` and a_m for
        # the fe route and the certificate share the 1e7 table cap
        code, out, err = run(capsys, *argv[:1], "--preset", "zeta", *argv[1:])
        assert code == 2
        assert out == ""
        assert err == ("computation error: coefficient table of length 20000000 "
                       "exceeds the 1e7 cap\n")

    @pytest.mark.parametrize("X", ["3e6", "1e7"])
    def test_eval_past_the_table_cap(self, capsys, X):
        # the truncation rule stops at the table cap: 1e7 once failed with
        # its own 5e7 limit, 3e6 only once the table was asked for
        code, out, err = run(capsys, "eval", "--preset", "zeta", "--sigma", "0.5",
                             "--t", "20", "--X", X)
        assert code == 2
        assert out == ""
        assert err.startswith("computation error: coefficient table of length "
                              "> 10000000 exceeds the 1e7 cap")

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

    def test_pole_on_the_transform_segment(self, capsys, tmp_path):
        # zeta with one more pole, at 1/2 + 130i inside K_T = [125.7, 188.5]
        config = dict(PRESET_CONFIGS["zeta"], name="zeta-pole-130")
        config["poles"] = config["poles"] + [{"location": [0.5, 130.0], "order": 1,
                                             "leading": [[1.0, 0.0]]}]
        path = tmp_path / "pole.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "transform", "--config", str(path), "--m", "1",
                             "--T-grid", "10", "--routes", "direct")
        assert code == 2
        assert out == ""
        assert err == ("computation error: pole of 'zeta-pole-130' on the "
                       "integration segment\n")

    #: zeta's order-1 pole as an order-3 one, Laurent data included
    ORDER_3 = [{"location": [1.0, 0.0], "order": 3,
                "leading": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}]
    #: a table whose 21st value (entry [20]) is NaN, and a NaN pattern
    TABLE_NAN = {"kind": "table",
                 "values": [[1.0, 0.0]] * 20 + [[math.nan, 0.0]] + [[1.0, 0.0]] * 9}

    # each of these refusals was once a traceback (order 3 on a line
    # evaluation, eval at t = 1e200) or a wrong result with exit 0 (a pole
    # without Laurent data, order 1.9 read as 1, NaN sums and slopes); eval
    # on the NaN table blamed the 1e7 table cap
    @pytest.mark.parametrize("argv, fields, code, message", [
        (["eval", "--sigma", "0.5", "--t", "5"],
         {"poles": [{"location": [1.0, 0.0], "order": 1}]}, 1, "'leading'"),
        (["eval", "--sigma", "0.5", "--t", "5"], {"poles": ORDER_3}, 1,
         "poles of order 1 and 2 only"),
        (["transform", "--m", "1", "--T-grid", "10", "--routes", "direct"],
         {"poles": ORDER_3}, 1, "poles of order 1 and 2 only"),
        (["describe"], {"poles": [{"location": [1.0, 0.0], "order": 1.9,
                                   "leading": [[1.0, 0.0]]}]}, 1,
         "pole order must be an integer >= 1, got 1.9"),
        (["summatory", "--X-grid", "2^2:2^6"], {"coefficients": TABLE_NAN}, 1,
         "coefficient table entry [20] must be finite"),
        (["eval", "--sigma", "0.5", "--t", "30", "--X", "1000"],
         {"coefficients": TABLE_NAN}, 1, "coefficient table entry [20] must be finite"),
        (["twist-scan", "--T-grid", "2^5:2^8"],
         {"coefficients": {"kind": "periodic", "pattern": [[1.0, 0.0], [math.nan, 0.0]]}},
         1, "periodic pattern entry [1] must be finite"),
        (["eval", "--preset", "zeta-sq", "--sigma", "0.5", "--t", "1e200"], None, 1,
         "one-t cutoff 10 (|t|/2pi)^d overflows at t = 1e+200"),
        # the twist reads no pole term: any order is fine there
        (["twist-scan", "--T-grid", "2^5:2^8"], {"poles": ORDER_3}, 0, None),
    ], ids=["pole-without-leading", "eval-order-3", "transform-order-3",
            "order-1.9", "summatory-table-nan", "eval-table-nan",
            "twist-periodic-nan", "eval-t-1e200", "twist-order-3"])
    def test_refusals_are_one_usage_error_line(self, capsys, tmp_path, argv, fields,
                                              code, message):
        if fields is not None:
            path = tmp_path / "variant.json"
            path.write_text(json.dumps(dict(PRESET_CONFIGS["zeta"], name="variant",
                                            **fields)))
            argv = argv + ["--config", str(path)]
        got, out, err = run(capsys, *argv)
        assert got == code
        if code == 0:
            assert out and err == ""
            return
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert message in err

    def test_budget_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("TWISTLAB_BUDGET", "10")
        code, _, err = run(capsys, "transform", "--preset", "zeta",
                           "--m", "1", "--T-grid", "5", "--routes", "direct")
        assert code == 2

    def test_quadrature_past_the_panel_budget(self, capsys):
        # K_T at T = 1e8 needs 3.9e8 one-period panels, past PANEL_BUDGET:
        # refused before any node is built
        code, out, err = run(capsys, "osc", "--d", "1", "--alpha", "1",
                             "--T", "1e8", "--n", "1:1", "--mode", "quad")
        assert code == 2
        assert out == ""
        assert err.startswith("computation error: ")

    def test_budget_inf_lifts_the_guard(self, capsys, monkeypatch):
        argv = ("transform", "--preset", "zeta", "--m", "1", "--T-grid", "5",
                "--routes", "direct")
        monkeypatch.setenv("TWISTLAB_BUDGET", "inf")
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setenv("TWISTLAB_BUDGET", "10")
        assert run(capsys, *argv)[0] == 2

    @pytest.mark.parametrize("value", ["abc", "nan", "0"])
    def test_budget_not_a_positive_number(self, capsys, monkeypatch, value):
        monkeypatch.setenv("TWISTLAB_BUDGET", value)
        code, _, err = run(capsys, "transform", "--preset", "zeta",
                           "--m", "1", "--T-grid", "5", "--routes", "direct")
        assert code == 1
        assert err.startswith("usage error: TWISTLAB_BUDGET")

    def test_preset_and_config_exclusive(self, capsys):
        code, _, err = run(capsys, "describe", "--preset", "zeta",
                           "--config", str(CONFIGS / "custom-example.json"))
        assert code == 1
        assert err.startswith("usage error: ")

    def test_unknown_route(self, capsys):
        code, _, err = run(capsys, "transform", "--preset", "zeta",
                           "--T-grid", "20", "--routes", "sum,bogus")
        assert code == 1
        assert err == "usage error: unknown route 'bogus'\n"

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

    def test_transform_reads_a_m_once(self, capsys, monkeypatch):
        # a_m costs the table a_1..a_m, so the fe route reads it once per
        # command, not once per T
        prov = get_preset("zeta-sq").coefficients
        bulk, lengths = prov.bulk, []
        monkeypatch.setattr(prov, "bulk", lambda N: lengths.append(N) or bulk(N))
        code, out, _ = run(capsys, "transform", "--preset", "zeta-sq", "--m", "6",
                           "--routes", "fe", "--T-grid", "5:10:3")
        assert code == 0
        assert len([line for line in out.splitlines() if line[0].isdigit()]) == 3
        assert lengths == [6]

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
    def test_roundtrip_preset_config(self, capsys, tmp_path):
        path = tmp_path / "zeta-shift-pair.json"
        path.write_text(json.dumps({
            "name": "zeta-shift-pair", "lambda": [0.5, 0.5],
            "mu": [[0.25, 0.0], [-0.25, 0.0]], "Q": 0.3183098861837907,
            "omega": [1.0, 0.0], "sigma_a": 1.5,
            "coefficients": {"kind": "preset", "name": "zeta-shift-pair"}}))
        code, out, _ = run(capsys, "describe", "--config", str(path))
        assert code == 0
        assert "d=2.0" in out
        code, out, _ = run(capsys, "coeffs", "--config", str(path), "--n", "6")
        assert code == 0
        assert "4.898979485566357" in out

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_shipped_config_matches_preset(self, name):
        # the parsed instance, poles and Laurent data included, is the preset
        got = instance_from_config(PRESET_CONFIGS[name])
        want = get_preset(name)
        assert got.name == want.name
        assert got.fe == want.fe
        assert got.sigma_a == want.sigma_a
        assert got.coefficients is want.coefficients

    @pytest.mark.parametrize("pole, error", [
        ({"location": [1.0, 0.0], "order": 1.9, "leading": [[1.0, 0.0]]}, ValueError),
        ({"location": [1.0, 0.0], "order": 1}, ValueError),
    ], ids=["order-1.9", "no-leading"])
    def test_loader_takes_poles_as_declared(self, pole, error):
        # the order is passed through unconverted, and Laurent data is required
        with pytest.raises(error):
            instance_from_config(dict(PRESET_CONFIGS["zeta"], poles=[pole]))

    def test_custom_example_loads(self):
        L = load_instance(str(CONFIGS / "custom-example.json"))
        assert L.name == "custom-example"
        assert L.invariants().d == 1.0

    # json reads NaN and Infinity; NaN once passed the |omega| = 1 check and
    # an infinite Q or Laurent coefficient gave nan or inf values with exit 0
    @pytest.mark.parametrize("field, value, message", [
        ("omega", [float("nan"), 0.0], "omega must be finite"),
        ("Q", float("inf"), "Q must be finite"),
        ("Q", float("nan"), "Q must be finite"),
        ("leading", [[float("inf"), 0.0]], "pole leading Laurent data must be finite"),
        ("location", [float("nan"), 0.0], "pole location must be finite"),
    ], ids=["omega-nan", "Q-inf", "Q-nan", "leading-inf", "location-nan"])
    @pytest.mark.parametrize("argv", [["describe"],
                                      ["eval", "--sigma", "0.5", "--t", "20"]],
                             ids=["describe", "eval"])
    def test_config_refuses_non_finite(self, tmp_path, capsys, field, value,
                                       message, argv):
        cfg = json.loads(json.dumps(PRESET_CONFIGS["zeta"]))
        if field in ("Q", "omega"):
            cfg[field] = value
        else:
            cfg["poles"][0][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: bad config ")
        assert message in err

    @staticmethod
    def edited_config(field, value):
        """zeta's config with one field replaced, "-" removing it; a path
        into the first pole or the coefficients edits that object."""
        cfg = json.loads(json.dumps(PRESET_CONFIGS["zeta"]))
        if field == "config":
            return value
        owner, _, key = field.rpartition(".")
        target = {"": cfg, "poles[0]": cfg["poles"][0], "coefficients": cfg["coefficients"]}
        if value == "-":
            del target[owner][key]
        else:
            target[owner][key] = value
        return cfg

    # each was a traceback, a bare key, an unnamed message or (strings and
    # booleans for numbers) a load with exit 0
    @pytest.mark.parametrize("field, value, message", [
        ("poles[0].leading", 5, "poles[0].leading: expected a list, got 5"),
        ("lambda", 0.5, "lambda: expected a list, got 0.5"),
        ("poles[0].location", [1.0], "poles[0].location: expected an [re, im] pair, "
                                     "got a list of 1"),
        ("mu", [[0.0]], "mu[0]: expected an [re, im] pair, got a list of 1"),
        ("omega", 1.0, "omega: expected an [re, im] pair, got 1.0"),
        ("config", [1, 2], "config: expected an object, got a list of 2"),
        ("coefficients", {"kind": "table", "values": [1, 2]},
         "coefficients.values[0]: expected an [re, im] pair, got 1"),
        ("Q", [1], "Q: expected a number, got a list of 1"),
        ("sigma_a", None, "sigma_a: expected a number, got null"),
        ("poles", {"a": 1}, "poles: expected a list, got an object"),
        ("mu", [["0", "0"]], 'mu[0][0]: expected a number, got "0"'),
        ("coefficients", "ones", 'coefficients: expected an object, got "ones"'),
        ("Q", "0.5", 'Q: expected a number, got "0.5"'),
        ("Q", True, "Q: expected a number, got true"),
        ("Q", "-", "config: missing field 'Q'"),
        ("poles[0].leading", "-", "poles[0]: missing field 'leading'"),
        ("coefficients", {"kind": "periodic", "pattern": []},
         "coefficients.pattern: expected a non-empty list, got a list of 0"),
        ("coefficients", {"kind": "preset", "name": "zeta-cubed"},
         'coefficients.name: expected a preset name, got "zeta-cubed"'),
    ], ids=["leading-number", "lambda-number", "location-one", "mu-pair-one",
            "omega-number", "top-level-list", "table-numbers", "Q-list", "sigma_a-null",
            "poles-object", "mu-strings", "coefficients-string", "Q-string", "Q-bool",
            "Q-missing", "leading-missing", "pattern-empty", "preset-unknown"])
    def test_malformed_config_is_one_line_naming_the_field(self, tmp_path, capsys,
                                                           field, value, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(self.edited_config(field, value)))
        code, out, err = run(capsys, "describe", "--config", str(path))
        assert (code, out) == (1, "")
        assert err == f"usage error: bad config {str(path)!r}: {message}\n"

    # zeta's gamma factor and Q without its pole, so that alpha = 2 pi is
    # the resonance of m = 1; the pattern is the character mod 5 with
    # chi(2) = i, so the twist and the sum route take complex coefficients
    PATTERN = [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-1.0, 0.0], [0.0, 0.0]]

    @staticmethod
    def coefficient_config(tmp_path, coefficients):
        cfg = dict(PRESET_CONFIGS["zeta"], name="custom", poles=[],
                   coefficients=coefficients)
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(cfg))
        return cfg, str(path)

    @staticmethod
    def rows(out):
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        return [[float(v) for v in line.split(",")] for line in lines[1:]]

    def test_complex_periodic_kind(self, tmp_path, capsys):
        cfg, path = self.coefficient_config(
            tmp_path, {"kind": "periodic", "pattern": self.PATTERN})
        L = instance_from_config(cfg)
        pattern = [complex(re, im) for re, im in self.PATTERN]
        assert L.coefficients.bulk(7).values.tolist() == pattern + pattern[:2]

        def a(n):
            return pattern[(n - 1) % len(pattern)]

        alpha = L.resonance_alpha(1)  # 2 pi, to rounding

        def oracle(lo, hi, X, weight=1.0):
            # sum_{lo < n < hi} a_n e^{-(n/X)^2} e^{-i alpha n}, term by term
            terms = [weight * a(n) * math.exp(-(n / X) ** 2) * cmath.exp(-1j * alpha * n)
                     for n in range(math.floor(lo) + 1, math.ceil(hi))]
            return sum(terms), sum(abs(t) for t in terms)

        code, out, _ = run(capsys, "eval", "--config", path, "--sigma", "0.5",
                           "--t", "10:30:3", "--X", "1000")
        assert code == 0
        for t, re_, im, _, _ in self.rows(out):
            v = smoothed_value(L, 0.5, t, SmoothingParams(X=1000.0)).value
            assert (re_, im) == (v.real, v.imag)

        code, out, _ = run(capsys, "twist-scan", "--config", path, "--alpha", "auto",
                           "--T-grid", "2^5:2^8")
        assert code == 0 and f"# alpha={alpha!r}" in out
        for T, re_, im, _ in self.rows(out):
            want, scale = oracle(T, 4.0 * T, T ** 2.0)  # X = T^{d + 1}
            assert abs(complex(re_, im) - want) <= 1e-12 * scale

        code, out, _ = run(capsys, "transform", "--config", path, "--m", "1",
                           "--T-grid", "20:80:4", "--routes", "sum,fe")
        assert code == 0
        kap = kappa(L, alpha, 1)
        for T, re_, im, fe_re, fe_im, _ in self.rows(out):
            want, scale = oracle(2.0 * T, 3.0 * T, T ** 1.5, math.sqrt(2.0 * math.pi))
            assert abs(complex(re_, im) - want) <= 1e-12 * scale
            assert complex(fe_re, fe_im) == pytest.approx(kap * T, rel=1e-14)

    def test_real_table_kind(self, tmp_path, capsys):
        values = [[1.0, 0.0], [-0.5, 0.0], [0.25, 0.0]]
        cfg, path = self.coefficient_config(tmp_path, {"kind": "table", "values": values})
        table = instance_from_config(cfg).coefficients.bulk(5).values
        assert table.dtype == np.float64
        assert table.tolist() == [1.0, -0.5, 0.25, 0.0, 0.0]
        code, out, _ = run(capsys, "coeffs", "--config", path, "--bulk", "5")
        assert code == 0
        assert self.rows(out) == [[1, 1.0, 0.0], [2, -0.5, 0.0], [3, 0.25, 0.0],
                                  [4, 0.0, 0.0], [5, 0.0, 0.0]]

    def test_unknown_coefficient_kind(self, tmp_path, capsys):
        _, path = self.coefficient_config(tmp_path, {"kind": "fourier"})
        code, out, err = run(capsys, "describe", "--config", path)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: bad config ")
        assert "unknown coefficient source kind 'fourier'" in err

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

    BLAS_COMMANDS = [
        ("eval", ["eval", "--preset", "zeta", "--sigma", "0.5", "--t", "10:50:5",
                  "--X", "10000"]),
        ("transform", ["transform", "--preset", "zeta", "--m", "1", "--T-grid", "20",
                       "--routes", "direct,sum,fe"]),
        ("values", ["values"]),
    ]

    @pytest.mark.parametrize("name, argv", BLAS_COMMANDS,
                             ids=[c[0] for c in BLAS_COMMANDS])
    def test_bytes_do_not_depend_on_blas_threads(self, name, argv, tmp_path):
        outputs, threads = {}, {}
        for n in (1, 2):
            log, outputs[n] = run_blas_child(argv, tmp_path / f"threads{n}.out",
                                             OPENBLAS_NUM_THREADS=str(n),
                                             OMP_NUM_THREADS=str(n))
            threads[n] = log.split("blas threads ")[-1].split()[0]
        print(f"{name}: BLAS threads requested 1, 2; got {threads[1]}, {threads[2]}")
        if threads[1] == threads[2]:
            warnings.warn(f"{name}: the BLAS ran {threads[1]} thread(s) both times; "
                          "the comparison does not exercise a thread-count change")
        assert outputs[1] == outputs[2], f"got BLAS threads {threads}"

    #: the AC-8 commands whose log-log fits took BLAS dot products, and the
    #: AC-8 transform, whose direct route sums by BLAS moment products
    KERNEL_COMMANDS = [
        ("twist", ["twist-scan", "--preset", "dirichlet-chi4", "--alpha", "auto",
                   "--T-grid", "2^5:2^10"]),
        ("summatory", ["summatory", "--preset", "zeta-scaled", "--X-grid", "2^7:2^13"]),
        ("transform", ["transform", "--preset", "zeta", "--m", "1", "--T-grid", "20",
                       "--routes", "direct,sum,fe"]),
    ]
    #: the columns whose bytes may differ between BLAS kernels (README,
    #: "Concurrency"): the direct route and the deviations that involve it
    KERNEL_EXCEPTIONS = {"transform": ("direct_re", "direct_im", "dev_direct_sum",
                                       "dev_direct_fe")}

    @pytest.mark.parametrize("name, argv", KERNEL_COMMANDS,
                             ids=[c[0] for c in KERNEL_COMMANDS])
    def test_bytes_do_not_depend_on_blas_kernel(self, name, argv, tmp_path):
        # OPENBLAS_CORETYPE forces the kernel that OpenBLAS's DYNAMIC_ARCH
        # would pick for the CPU, and OPENBLAS_VERBOSE=2 prints the core used
        blas = numpy_blas()
        if "openblas" not in blas.lower():
            pytest.skip(f"numpy uses the BLAS {blas!r}, not OpenBLAS: its kernel "
                        "cannot be forced")
        outputs, cores = {}, {}
        for core in (None, "Sandybridge", "Prescott"):
            log, outputs[core] = run_blas_child(argv, tmp_path / f"{core}.out",
                                                OPENBLAS_CORETYPE=core,
                                                OPENBLAS_VERBOSE="2")
            found = re.search(r"Core: (\S+)", log)
            cores[core] = found.group(1) if found else None
        print(f"{name}: OPENBLAS_CORETYPE unset, Sandybridge, Prescott; got cores "
              f"{cores[None]}, {cores['Sandybridge']}, {cores['Prescott']}")
        if None in cores.values():
            pytest.skip(f"OpenBLAS reported no core ({cores}): it was built without "
                        "DYNAMIC_ARCH, so its kernel cannot be forced")
        kept = {core: without_columns(out, self.KERNEL_EXCEPTIONS.get(name, ()))
                for core, out in outputs.items()}
        assert len(set(kept.values())) == 1, f"got cores {cores}"


class TestPinnedBytes:
    """sha256 of outputs recorded with earlier versions of the code (numpy
    2.4): the coefficient and twist digests before real coefficient tables
    became float64, the eval digests before the phase-row builder took one
    t per call, the transform and certify digests before the sum route and
    the twist shared their window and term kernel, and the two runs below
    T = 1 before an empty coefficient range became the empty table bulk(0)
    (four of that transform's five sum windows and that certificate's first
    twist window hold no integer).  TestDeterminism
    compares two runs of the same code, this compares the code with its
    earlier versions.  Bits are promised for one numpy version, so another
    one skips."""

    PINNED = [
        (["coeffs", "--preset", "zeta", "--bulk", "3000"],
         "c02b6f1428331227e333b501c8801e3a74c9d6ff1ee5b66a2e6f5bf2e2557995"),
        (["coeffs", "--preset", "zeta-doubled", "--bulk", "3000"],
         "ab0d614442e0029a3c71e52bc8f2f4e9fa5b0f87532a39a4bd4f63dd41d83d54"),
        (["coeffs", "--preset", "dirichlet-chi4", "--bulk", "3000"],
         "99ddc808e040c416daf387f23f8deecaf5d17d71494fe0e5e4f760775b999445"),
        (["coeffs", "--preset", "zeta-sq", "--bulk", "3000"],
         "a24ef3a19fb8df0340506be6165269de5b14fa74e985ec71382c80ac4ebdd932"),
        (["coeffs", "--preset", "zeta-shift-pair", "--bulk", "3000"],
         "7e0b627a21907823934795c85b9800ec4eb77eeb783c8ad0038109a9a12cf3ca"),
        (["coeffs", "--preset", "zeta-scaled", "--bulk", "3000"],
         "1138b7eff08162381af87ff56b56c4794b8e6f2c98b6bcfa9ee8e95955fee3a9"),
        (["coeffs", "--preset", "delta", "--bulk", "3000"],
         "bbee074d0d4fe7adbc5e78613a8f1b746123ebdecac965cff8a50f73563532b1"),
        (["twist-scan", "--preset", "delta", "--alpha", "auto", "--T-grid", "2^5:2^11"],
         "c2ccb97979daa476f0ce7e61250c9bbb45e2ede906ac100f11ecb2361eed445e"),
        # single-t evaluations: one phase row per t, summed without BLAS
        (["eval", "--preset", "zeta-sq", "--sigma", "0.5", "--t", "10:50:5", "--X", "1e4"],
         "45f978b02306c9867bdd21399a008a7493fb1d79976b2260deda62f3d2f93cd3"),
        (["eval", "--preset", "delta", "--sigma", "0.6", "--t", "5:25:5"],
         "0f18d04a2a16bc73e49936306d47325935ac0cbe8078fc944e4d5c0295ec221b"),
        # straddles |t| >= 2, below which no residue is applied; the t = 2
        # row cancels the pole term to its last bits
        (["eval", "--preset", "zeta-shift-pair", "--sigma", "0.5", "--t", "1:3:5"],
         "1049be9e2c4eb6017be6af7b421e5a23258cd8cb2a057bd5575e88cb3ef0aa2e"),
        # pole terms below |t| = 2, where no residue is applied: the
        # order-2 pole at 1, and the order-1 pole at 3/4
        (["eval", "--preset", "zeta-sq", "--sigma", "0.5", "--t", "1:3:5"],
         "8fccec4e8936f09c3cdf1950cb03acca513af0bc09cc156a2dd8805c933e02ee"),
        (["eval", "--preset", "zeta-scaled", "--sigma", "0.6", "--t", "1:3:5"],
         "5e60f66b8406358220fc65e522bd575443a3f693e7cb6fb08c8f9e823ae3b1b5"),
        (["transform", "--preset", "zeta-shift-pair", "--m", "1", "--T-grid", "50:150:3",
          "--routes", "sum,fe"],
         "f58c53b9f303ab6047e95e12850a02f4ee1c0b359562b6975f7384660b15fc36"),
        (["certify", "--preset", "zeta-sq", "--m", "1", "--T-grid", "2^5:2^14"],
         "3776b86f0755605dd477dbeb2bf7c1a4fb3cde9d1319cc504af04b9274153b2f"),
        # empty windows: no BLAS on either path
        (["transform", "--preset", "zeta", "--m", "1", "--T-grid", "0.05:1:5",
          "--routes", "sum,fe"],
         "4691faa534007591d1d3999cf834f54c246bd04af11967e381c1c490dcb03794"),
        (["certify", "--preset", "zeta", "--m", "1", "--T-grid", "0.1:1:4"],
         "798629c061df247103720b559bab933e0eb01399eb426014253bfd979587d864"),
    ]

    @staticmethod
    def ids(rows):
        """command-preset, with the t grid appended when that is taken."""
        out = []
        for argv, _ in rows:
            name = f"{argv[0]}-{argv[2]}"
            out.append(name if name not in out else f"{name}-t{argv[argv.index('--t') + 1]}")
        return out

    @pytest.mark.parametrize("argv, digest", PINNED, ids=ids(PINNED))
    def test_bytes_match_the_recorded_digest(self, argv, digest, tmp_path):
        if np.__version__.split(".")[:2] != ["2", "4"]:
            pytest.skip(f"digests recorded under numpy 2.4, not {np.__version__}")
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestLayout:
    """Header, meta keys and column names of every subcommand, in both
    formats; no value is pinned."""

    CASES = [
        ("coeffs", ["--preset", "zeta", "--n", "3"],
         ["n", "preset"], ["n", "re", "im"], []),
        ("coeffs", ["--preset", "zeta", "--bulk", "3"],
         ["bulk", "preset"], ["n", "re", "im"], []),
        ("eval", ["--preset", "zeta", "--sigma", "0.5", "--t", "20", "--X", "1000"],
         ["X", "epsilon", "p", "preset", "sigma", "t"],
         ["t", "re", "im", "terms_used", "tail_bound"], []),
        ("gamma-check", ["--preset", "zeta", "--x", "0.6", "--t-grid", "100"],
         ["preset", "t_grid", "x"],
         ["t", "exact_re", "exact_im", "asym_re", "asym_im", "rel_err"], []),
        ("osc", ["--d", "1", "--alpha", "6.283185307179586", "--T", "3000",
                 "--n", "6200", "--mode", "sp"],
         ["T", "alpha", "d", "mode", "n", "tol"],
         ["n", "quad_re", "quad_im", "sp_re", "sp_im", "abs_diff"], []),
        ("transform", ["--preset", "zeta", "--T-grid", "20"],
         ["T_grid", "m", "p", "preset", "rho", "routes"],
         ["T", "direct_re", "direct_im", "sum_re", "sum_im", "fe_re", "fe_im",
          "dev_direct_sum", "dev_direct_fe", "dev_sum_fe"], []),
        ("transform", ["--preset", "zeta", "--T-grid", "20", "--routes", "fe,sum"],
         ["T_grid", "m", "p", "preset", "rho", "routes"],
         ["T", "sum_re", "sum_im", "fe_re", "fe_im", "dev_sum_fe"], []),
        ("twist-scan", ["--preset", "zeta", "--T-grid", "2^5:2^8"],
         ["T_grid", "alpha", "m", "p", "preset", "rho"],
         ["T", "tw_re", "tw_im", "normalized"], ["slope", "slope_stderr"]),
        ("summatory", ["--preset", "zeta", "--X-grid", "2^5:2^8"],
         ["X_grid", "preset"], ["X", "sum"], ["slope", "slope_stderr"]),
        ("certify", ["--preset", "zeta", "--T-grid", "2^5:2^8"],
         ["T_grid", "alpha", "constant", "m", "p", "preset", "rho"],
         ["T", "lhs", "rhs", "pass", "margin"], []),
    ]
    DESCRIBE_KEYS = ["name", "d", "A", "B", "C", "Q", "omega_re", "omega_im",
                     "sigma_a", "pole_1", "resonance_alpha_m1"]

    @pytest.mark.parametrize("cmd, argv, meta, columns, trailer", CASES,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
    def test_csv(self, capsys, cmd, argv, meta, columns, trailer):
        code, out, _ = run(capsys, cmd, *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"# twistlab {cmd}"
        head = lines[1:1 + len(meta)]
        assert [ln[2:].split("=")[0] for ln in head] == meta
        assert all(ln.startswith("# ") for ln in head)
        assert lines[1 + len(meta)].split(",") == columns
        body = lines[2 + len(meta):]
        assert [ln[2:].split("=")[0] for ln in body if ln.startswith("# ")] == trailer
        assert all(len(ln.split(",")) == len(columns)
                   for ln in body if not ln.startswith("# "))

    @pytest.mark.parametrize("cmd, argv, meta, columns, trailer", CASES,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
    def test_json(self, capsys, cmd, argv, meta, columns, trailer):
        code, out, _ = run(capsys, cmd, *argv, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert sorted(data) == ["columns", "meta", "rows"]
        assert data["meta"]["_cmd"] == cmd
        assert sorted(data["meta"]) == sorted(["_cmd", *meta, *trailer])
        assert data["columns"] == columns
        assert data["rows"] and all(sorted(r) == sorted(columns) for r in data["rows"])

    def test_describe(self, capsys):
        code, out, _ = run(capsys, "describe", "--preset", "zeta")
        assert code == 0
        assert [ln.split("=")[0] for ln in out.splitlines()] == self.DESCRIBE_KEYS
        code, out, _ = run(capsys, "describe", "--preset", "zeta", "--format", "json")
        assert code == 0
        assert sorted(json.loads(out)) == sorted(self.DESCRIBE_KEYS)
