"""Tests of the benchmark itself: percentile rule, span arithmetic, wrapper
install/restore, and that every correctness check rejects a perturbed value.

    python3 -m pytest perfbench/tests -q
"""
import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402
from twistlab import (coefficients, evaluate, gammafn, oscillatory,  # noqa: E402
                      summatory, transforms)
from twistlab.model import SmoothingParams  # noqa: E402
from twistlab.presets import get_preset  # noqa: E402


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("q", [0.5, 0.9])
def test_tail_count_is_samples_beyond_percentile(q):
    for n in range(1, 260):
        xs = list(range(n))
        beyond = sum(x > stats.percentile(xs, q) for x in xs)
        assert stats.tail_count(n, q) == beyond
        assert stats.supported(n, q) == (beyond >= stats.MIN_TAIL)


def test_p90_needs_about_a_hundred_samples():
    assert not stats.supported(90, 0.9)
    assert stats.supported(100, 0.9)
    assert not stats.supported(14, 0.9)  # one transform pass
    assert stats.supported(len(workloads.build("pointwise", 0).next_pass()), 0.9)


def test_percentile_matches_inclusive_quantiles():
    xs = [0.3, 1.7, 0.2, 5.0, 2.2, 0.9, 1.1, 4.4, 3.3, 0.05, 7.5]
    qs = statistics.quantiles(xs, n=10, method="inclusive")
    assert stats.percentile(xs, 0.9) == pytest.approx(qs[8], rel=1e-15)
    assert stats.median(xs) == statistics.median(xs)


# -- calibration -------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_probe_time_is_left_out_of_pass_wall(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(worker.time, "perf_counter", clock)
    monkeypatch.setattr(calibrate.time, "perf_counter", clock)

    def probe():
        clock.now += 0.25
        return 0.25

    def op_taking(seconds):
        def run():
            clock.now += seconds
            return seconds
        return workloads.Op(f"op {seconds}", "test", run, lambda r: None)

    monkeypatch.setattr(calibrate, "probe", probe)
    cal = calibrate.Calibrator(interval=1.0)
    ops = [op_taking(x) for x in (0.5, 0.75, 1.0, 0.25)]
    wall, times, results = worker.run_pass(ops, calibrator=cal)
    # probes before the 1st, 3rd and 4th operations: 1.25 s and 1.0 s after
    # the previous probe ended
    assert len(cal.samples) == 3
    assert times == results == [0.5, 0.75, 1.0, 0.25]
    assert wall == pytest.approx(2.5)
    assert cal.factor() == pytest.approx(calibrate.REFERENCE_S / 0.25)


def test_calibration_scales_to_reference_seconds():
    cal = calibrate.Calibrator()
    cal.samples = [0.02, 0.03, 0.01, 0.05, 0.02]
    assert cal.factor() == calibrate.REFERENCE_S / 0.02
    assert cal.info()["probes"] == 5
    assert calibrate.probe() > 0.0


# -- span arithmetic ---------------------------------------------------------

def test_self_time_on_synthetic_nested_spans():
    spans = [Span("root", 0.0, 10.0, -1, "op"),
             Span("a", 1.0, 3.0, 0, "op"),
             Span("b", 2.0, 5.0, 0, "op"),      # overlaps a
             Span("c", 8.0, 12.0, 0, "op"),     # runs past its parent
             Span("a.child", 1.5, 2.0, 1, "op"),
             Span("next", 11.0, 13.0, -1, "op")]
    self_s = tracing.self_times(spans)
    assert self_s == pytest.approx([10.0 - 4.0 - 2.0, 2.0 - 0.5, 3.0, 4.0, 0.5, 2.0])
    assert tracing.covered_time(spans) == pytest.approx(10.0 + 2.0)


def test_wrapped_calls_nest_and_partition_time(monkeypatch):
    clock = iter(float(i) for i in range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    tr = Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    spans = tr.finished_spans()
    assert [(s.name, s.parent) for s in spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert sum(tracing.self_times(spans)) == pytest.approx(tr.covered())
    assert tr.counts["inner.calls"] == 2


# -- wrappers ----------------------------------------------------------------

PATCHED = [(transforms, "SmoothedLineEvaluator"), (transforms, "integrate_oscillatory"),
           (oscillatory, "integrate_oscillatory"), (transforms, "H_direct"),
           (transforms, "H_sum_side"), (transforms, "H_fe_side"),
           (transforms, "compensated_sum"), (evaluate, "smoothed_value"),
           (evaluate, "fe_cross_check"), (evaluate, "reference_zeta"),
           (evaluate, "log_gamma"), (evaluate, "gamma_ratio_exact_grid"),
           (evaluate, "compensated_sum"), (gammafn, "gamma_ratio_compare"),
           (coefficients, "tau_integers"), (coefficients, "conv_exact"),
           (summatory, "additive_twist"), (summatory, "abs_partial_sum"),
           (summatory, "omega_certificate"), (summatory, "compensated_sum")]
PROVIDERS = [coefficients.OnesProvider, coefficients.PeriodicProvider,
             coefficients.DirichletConvolutionProvider,
             coefficients.RamanujanTauProvider, coefficients.CoefficientProvider]


def test_wrappers_are_installed_then_restored():
    before = {(m.__name__, a): getattr(m, a) for m, a in PATCHED}
    bulks = {cls: cls.__dict__["bulk"] for cls in PROVIDERS}
    tr = Tracer()
    tr.install()
    try:
        for m, a in PATCHED:
            assert getattr(m, a) is not before[(m.__name__, a)], (m.__name__, a)
        for cls in PROVIDERS:
            assert cls.__dict__["bulk"] is not bulks[cls]
    finally:
        tr.uninstall()
    for m, a in PATCHED:
        assert getattr(m, a) is before[(m.__name__, a)], (m.__name__, a)
    for cls in PROVIDERS:
        assert cls.__dict__["bulk"] is bulks[cls]


def test_traced_transform_is_bit_identical():
    L = get_preset("dirichlet-chi4")
    plain = transforms.run_transform(L, 1, 20.0, SmoothingParams())
    tr = Tracer()
    tr.install()
    try:
        traced = transforms.run_transform(L, 1, 20.0, SmoothingParams())
    finally:
        tr.uninstall()
    assert traced == plain
    m = tr.layer_metrics()
    assert m["evaluate.line_values.nodes"] > 0
    assert m["oscillatory.integrate.calls"] == 1
    assert 0.0 < m["oscillatory.integrate.useful_node_ratio"] < 1.0
    assert m["evaluate.line_values.node_terms"] == (
        m["evaluate.line_values.nodes"] * m["evaluate.line_init.terms"])


# -- checks reject perturbed values ------------------------------------------

def perturb(value, rel):
    return value * (1.0 + rel)


@pytest.mark.parametrize("name", ["zeta", "zeta-doubled", "dirichlet-chi4", "zeta-scaled"])
def test_smoothed_check_rejects_1e6_error(name):
    s = complex(0.5, 23.4)
    res = evaluate.smoothed_value(get_preset(name), s.real, s.imag, SmoothingParams(X=1e4))
    assert checks.check_smoothed("t", name, s, res) is None
    bad = dataclasses.replace(res, value=res.value + 1e-6)
    assert checks.check_smoothed("t", name, s, bad) is not None


def test_chi4_oracle_known_values():
    assert checks.l_chi4(1.0) == pytest.approx(math.pi / 4, rel=1e-13)
    assert checks.l_chi4(2.0) == pytest.approx(0.915965594177219015, rel=1e-13)


def test_fe_and_reference_zeta_checks_reject():
    assert checks.check_fe_defect("t", 1e-9) is None
    assert checks.check_fe_defect("t", 2e-6) is not None
    s = complex(0.6, 71.3)
    z = evaluate.reference_zeta(s)
    assert checks.check_reference_zeta("t", s, z) is None
    assert checks.check_reference_zeta("t", s, z + 1e-6) is not None


def test_gamma_check_rejects_error_above_law():
    spec = get_preset("delta").fe.gamma
    res = gammafn.gamma_ratio_compare(spec, 0.6, 123.0)
    assert checks.check_gamma("t", "delta", 0.6, 123.0, res) is None
    bad = dataclasses.replace(res, relative_error=1.01 * 34.8 / 123.0)
    assert checks.check_gamma("t", "delta", 0.6, 123.0, bad) is not None


def test_I_n_checks_reject():
    T = 5000.0
    pf = oscillatory.PhaseFamily(alpha=2 * math.pi, n=12000, d=1.0)
    quad = oscillatory.I_n_quadrature(pf, T, 1e-3)
    assert checks.check_I_n("t", pf, T, quad) is None
    sp = oscillatory.I_n_stationary_phase(pf, T)
    assert checks.check_I_n("t", pf, T, sp * 1.06) is not None
    out = oscillatory.PhaseFamily(alpha=2 * math.pi, n=25000, d=1.0)
    bound = 10.0 * oscillatory.first_derivative_bound(out, T)
    assert checks.check_I_n("t", out, T, 0.99 * bound) is None
    assert checks.check_I_n("t", out, T, 1.01 * bound) is not None


def test_transform_check_rejects():
    label = "transform dirichlet-chi4 T=20"
    L = get_preset("dirichlet-chi4")
    rep = transforms.run_transform(L, 1, 20.0, SmoothingParams())
    assert checks.check_transform(label, L, 20.0, rep) is None
    tol = 2.0 * 1e-4 * 20.0 / math.sqrt(L.resonance_alpha(1))
    for bad in (dataclasses.replace(rep, direct=rep.direct + 1.5 * tol),
                dataclasses.replace(rep, sum_side=perturb(rep.sum_side, 1e-11)),
                dataclasses.replace(rep, fe_side=perturb(rep.fe_side, 1e-11)),
                dataclasses.replace(rep, deviations={**rep.deviations, "direct-fe": 0.16})):
        assert checks.check_transform(label, L, 20.0, bad) is not None


def test_sum_route_check_rejects():
    label = "sums transform zeta-shift-pair T=50"
    ref = checks.reference(label)
    rep = transforms.TransformReport(T=50.0, direct=None,
                                     sum_side=complex(*ref["sum"][0]),
                                     fe_side=complex(*ref["fe"][0]), deviations={})
    assert checks.against_reference(label, "run_transform", rep) is None
    bad = dataclasses.replace(rep, sum_side=perturb(rep.sum_side, 1e-11))
    assert checks.against_reference(label, "run_transform", bad) is not None


def test_twist_scan_check_rejects():
    label = "sums twist delta"
    values = tuple(checks.to_complex(checks.reference(label)["twist_values"]))
    rep = summatory.TwistReport(grid=workloads.TWIST_GRID, twist_values=values,
                                normalized=(), slope=0.75, slope_stderr=0.0)
    assert checks.check_twist_scan(label, rep) is None
    assert checks.check_twist_scan(label, dataclasses.replace(rep, slope=0.81)) is not None
    bad = (perturb(values[0], 1e-11),) + values[1:]
    assert checks.check_twist_scan(label, dataclasses.replace(rep, twist_values=bad)) is not None


def test_certificate_check_rejects():
    ops = {op.label: op for op in workloads.sums_ops()}
    op = ops["sums certificate zeta"]
    rep = op.run()
    assert op.check(rep) is None
    row = rep.rows[3]
    for bad_row in (dataclasses.replace(row, triangle_ok=False),
                    dataclasses.replace(row, twist_abs=perturb(row.twist_abs, 1e-11)),
                    dataclasses.replace(row, margin=1.8)):
        bad = dataclasses.replace(rep, rows=rep.rows[:3] + (bad_row,) + rep.rows[4:])
        assert op.check(bad) is not None


def test_growth_check_rejects():
    ops = {op.label: op for op in workloads.sums_ops()}
    op = ops["sums growth zeta-scaled"]
    rep = op.run()
    assert op.check(rep) is None
    assert op.check(dataclasses.replace(rep, slope=0.79)) is not None
    sums = (perturb(rep.sums[0], 1e-11),) + rep.sums[1:]
    assert op.check(dataclasses.replace(rep, sums=sums)) is not None


# -- workloads and the result contract ---------------------------------------

def test_seed_sets_draws_and_order():
    def labels(seed):
        w = workloads.build("pointwise", seed)
        return [op.label for op in w.next_pass()], [op.label for op in w.next_pass()]
    assert labels(3) == labels(3)
    assert labels(3) != labels(4)
    first, second = labels(3)
    assert sum(label.startswith("I_n") for label in first) == 24
    assert set(first) - set(second) == {x for x in first if x.startswith("I_n")}
    assert len(workloads.transform_ops()) == 14
    assert len(workloads.sums_ops()) == 9
    assert run.WORKLOADS == workloads.WORKLOADS


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    tr = Tracer()
    layer_names = list(tr.layer_metrics()) + ["trace.overhead_s", "trace.unattributed_s"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sums",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
