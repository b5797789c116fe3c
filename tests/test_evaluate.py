"""Evaluator tests: smoothed sums, the zeta oracle, FE cross-checks.

zeta and beta reference values were computed ahead of the build with a
25-digit arbitrary-precision library and frozen here.
"""
import math
import sys
import threading

import numpy as np
import pytest

from twistlab import evaluate
from twistlab.coefficients import PeriodicProvider
from twistlab.errors import PoleError
from twistlab.evaluate import (SmoothedLineEvaluator, fe_cross_check,
                               reference_zeta, smoothed_value)
from twistlab.gammafn import _digamma_vec, _log_gamma_vec, _ratio_args
from twistlab.model import LSeriesInstance, SmoothingParams
from twistlab.oscillatory import _panel_nodes
from twistlab.presets import get_preset

ZETA_CRITICAL = {
    10.0: 1.5448952202967527669 - 0.11533646527127337544j,
    20.0: 0.42991386043784337216 - 1.0642914430805891127j,
    30.0: -0.12064228759004369991 - 0.58369121476370628876j,
    40.0: 0.79304495256192867196 - 1.0412746146510650201j,
    50.0: -0.081712108320979975048 + 0.33079219403866129559j,
}
BETA_CRITICAL = {
    20.0: 2.85106515448334582 - 0.364836579084913922j,
    30.0: -0.192758882975789751 + 0.915512657648399286j,
}
FIRST_ZETA_ZERO_T = 14.134725

#: independent oracles built from reference_zeta
ORACLES = {
    "zeta": reference_zeta,
    "zeta-sq": lambda s: reference_zeta(s) ** 2,
    "zeta-shift-pair": lambda s: reference_zeta(s + 0.5) * reference_zeta(s - 0.5),
    "zeta-doubled": reference_zeta,
    "zeta-scaled": lambda s: reference_zeta(2.0 * s - 0.5),
}
ORACLE_ROWS = (
    [pytest.param("zeta", 0.5, t, id=repr(t)) for t in sorted(ZETA_CRITICAL)]
    + [pytest.param(name, sigma, t, id=f"{name}-{sigma}-{t}")
       for name in ORACLES for sigma in (0.5, 0.6) for t in (20.0, 40.0)
       if (name, sigma) != ("zeta", 0.5)])
#: rows at the default cutoff X that miss the oracle: the contour remainder
#: past the second residue is neither removed nor counted in tail_bound
#: (ROADMAP open item 2; errors 1.0e-7 at t = 30 and 4.5e-5 at t = 50)
DEFAULT_X_ORACLE_ROWS = [
    pytest.param("zeta-scaled", 0.5, t, id=f"zeta-scaled-0.5-{t}",
                 marks=pytest.mark.xfail(strict=True, reason="ROADMAP open item 2"))
    for t in (30.0, 50.0)]


def dense_line_values(ev, t):
    """SmoothedLineEvaluator.values by the dense formula: one exponential
    per (t, n), then the same corrections."""
    t = np.asarray(t, dtype=np.float64)
    phases = np.exp(-1j * np.outer(t, ev._lnn))
    sums = np.array([phases[:, :coef.size] @ coef for coef in ev._coefs])
    sums = sums.reshape(len(ev._coefs), t.size)
    return sums[0] - ev._corrections(t, np.conj(sums[1:]))


def direct_corrections(ev, t, ft):
    """SmoothedLineEvaluator._corrections by one log Gamma and digamma call
    per node, straight from the definition of the pole terms and residues;
    also the sum of the terms' moduli, the scale of their rounding."""
    p, lnX, fe = ev.sp.p, math.log(ev.X), ev.L.fe
    value = np.zeros(t.size, dtype=complex)
    scale = np.zeros(t.size)
    for i, ti in enumerate(t):
        s = ev.sigma + 1j * ti
        terms = []
        for pole in ev._poles:
            w = (pole.location - s) / p
            g = np.exp(_log_gamma_vec(w) + p * w * lnX) / p
            if pole.order == 1:
                terms.append(pole.leading[0] * g)
            else:
                terms.append(pole.leading[0] * g * (_digamma_vec(w) / p + lnX)
                             + pole.leading[1] * g)
        args, signs = _ratio_args(fe.gamma, ev._x_k[:, 0], ti)
        applied = np.broadcast_to(ev._applied(np.array([ti])), ev._x_k.shape)[:, 0]
        for k in np.flatnonzero(applied):
            log_ratio = np.sum(signs[:, 0] * _log_gamma_vec(args[:, k]))
            terms.append(ev._const_k[k, 0] * ft[k, i]
                         * np.exp(log_ratio - 2j * ti * math.log(fe.Q)))
        value[i] = sum(terms)
        scale[i] = sum(abs(term) for term in terms)
    return value, scale


def main_series_value(L, sigma, t, sp):
    """The raw smoothed series at sigma + it, before the pole terms and
    residues are removed: the evaluator's main-series row."""
    ev = SmoothedLineEvaluator(L, sp, sigma=sigma)
    return complex(ev._series_sums(np.array([t]))[0, 0])


def phase_entries(ev, calls):
    """The phase entries a fresh evaluator forms for multi-point calls on
    each node set in `calls`: `width` per new centre, per anchor row (one
    per _BLOCK consecutive centres, in each call that forms a centre among
    them) and per row of the offset block."""
    known, rows = np.empty(0), evaluate._BLOCK
    for t in calls:
        index = np.setdiff1d(np.rint(t / ev.spacing), known)
        rows += index.size + np.unique(np.floor(index / evaluate._BLOCK)).size
        known = np.union1d(known, index)
    return ev.width * rows


def kernel_series(name):
    """A preset, or "complex-pattern": the complex c_n of
    PeriodicProvider((0, 1, i, -i, -1)) on dirichlet-chi4's
    functional-equation data.  The kernel oracle applies the same
    corrections, so the pair need not satisfy that equation."""
    if name != "complex-pattern":
        return get_preset(name)
    base = get_preset("dirichlet-chi4")
    return LSeriesInstance(name, PeriodicProvider((0, 1, 1j, -1j, -1)),
                           base.fe, base.sigma_a)


def panel_nodes_of_K_T(name, T):
    """Gauss-Legendre nodes on K_T = [2 alpha T, 3 alpha T], 128 panels:
    several nodes per Taylor centre, as in H_direct."""
    alpha = kernel_series(name).resonance_alpha(1)
    return _panel_nodes(2.0 * alpha * T, 3.0 * alpha * T, 128)[0]


KERNEL_T_SETS = {
    "one-point": lambda name: np.array([31.5]),
    "empty": lambda name: np.array([]),
    "unsorted-duplicates": lambda name: np.array([40.0, 12.5, 40.0, 33.3, 12.5, 55.0]),
    "negative": lambda name: np.array([-30.0, -12.5, -3.0, 4.0]),
    "panel-nodes-T60": lambda name: panel_nodes_of_K_T(name, 60.0),
    # more centres than one phase block holds
    "shuffled-wide": lambda name: np.random.default_rng(7).permutation(
        np.linspace(-500.0, 500.0, 1001)),
}

#: the set each kernel-oracle evaluator sees before the set under test
SEEN_FIRST = np.linspace(27.3, 61.9, 50)


@pytest.fixture
def sp4():
    return SmoothingParams(p=2.0, X=1e4)


class TestReferenceZeta:
    def test_basel(self):
        assert reference_zeta(2.0).real == pytest.approx(math.pi ** 2 / 6, abs=1e-12)

    def test_at_zero(self):
        assert reference_zeta(0.0).real == pytest.approx(-0.5, abs=1e-12)

    def test_half(self):
        assert reference_zeta(0.5).real == pytest.approx(-1.4603545088095868, abs=1e-11)

    @pytest.mark.parametrize("t", sorted(ZETA_CRITICAL))
    def test_critical_line(self, t):
        assert abs(reference_zeta(0.5 + 1j * t) - ZETA_CRITICAL[t]) < 1e-10

    def test_pole(self):
        with pytest.raises(PoleError):
            reference_zeta(1.0)

    def test_degenerate_denominator_fallback(self):
        # 2^{1-s} = 1 near s = 1 + 2 pi i k / log 2: the alternating form is
        # 0/0 there and the Euler-Maclaurin fallback must take over
        s = complex(1.0, 2 * math.pi / math.log(2))
        v = reference_zeta(s)
        # frozen 25-digit value at this point
        assert abs(v - (1.3465795428363166 + 0.10988313679627004j)) < 1e-9

    def test_matches_mpmath_on_documented_range(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for sigma in np.linspace(0.0, 3.0, 7):
                for t in np.linspace(-100.0, 100.0, 21):
                    if sigma == 1.0 and t == 0.0:
                        continue
                    want = complex(mpmath.zeta(mpmath.mpc(sigma, t)))
                    got = reference_zeta(complex(sigma, t))
                    assert abs(got - want) <= 1e-12, (sigma, t)

    def test_remainder_guard(self):
        # the Euler-Maclaurin remainder bound exceeds 1e-14 far left of the
        # documented range, and does not hold at all for Re s <= -25
        for s in (-24.5, -30.5 + 10j):
            with pytest.raises(ArithmeticError):
                reference_zeta(s)

    @pytest.mark.parametrize("s", [-10.5, -10.0, -20.0])
    def test_refuses_negative_real_part(self, s):
        # the remainder bound is small here, but cancellation leaves no
        # correct digit (zeta(-10.5) = 0.01115 came out as -1.695)
        with pytest.raises(ArithmeticError, match="Re s < 0"):
            reference_zeta(s)


class TestSmoothedValue:
    def test_basel_with_small_cutoff(self):
        L = get_preset("zeta")
        ev = smoothed_value(L, 2.0, 0.0, SmoothingParams(X=1e3))
        assert abs(ev.value - math.pi ** 2 / 6) < 1e-6

    # (N/X)^p leaves the float range at the first N the truncation rule tries
    @pytest.mark.parametrize("X, what", [(1e3, "underflows"), (10.0, "overflows")])
    def test_truncation_refuses_extreme_p(self, X, what):
        with pytest.raises(ValueError, match=rf"p=1000000000.0 {what} .* X={X:g}$"):
            smoothed_value(get_preset("zeta"), 0.5, 30.0, SmoothingParams(p=1e9, X=X))

    @pytest.mark.parametrize("name, sigma, t", ORACLE_ROWS)
    def test_matches_oracle_on_critical_line(self, name, sigma, t, sp4):
        ev = smoothed_value(get_preset(name), sigma, t, sp4)
        assert abs(ev.value - ORACLES[name](sigma + 1j * t)) < 1e-8

    @pytest.mark.parametrize("name, sigma, t", DEFAULT_X_ORACLE_ROWS)
    def test_matches_oracle_at_default_cutoff(self, name, sigma, t):
        ev = smoothed_value(get_preset(name), sigma, t, SmoothingParams())
        assert abs(ev.value - ORACLES[name](sigma + 1j * t)) < 1e-8

    def test_first_zero(self, sp4):
        L = get_preset("zeta")
        ev = smoothed_value(L, 0.5, FIRST_ZETA_ZERO_T, sp4)
        assert abs(ev.value) < 1e-4

    def test_chi4_against_frozen_beta(self, sp4):
        L = get_preset("dirichlet-chi4")
        for t, want in BETA_CRITICAL.items():
            got = smoothed_value(L, 0.5, t, sp4).value
            assert abs(got - want) < 1e-9

    def test_pole_proximity_error(self, sp4):
        L = get_preset("zeta")
        with pytest.raises(PoleError):
            smoothed_value(L, 1.0, 1e-8, sp4)

    def test_gamma_pole_error(self):
        # the zeta pole term at s = 3 needs Gamma(-1)
        with pytest.raises(PoleError):
            smoothed_value(get_preset("zeta"), 3.0, 0.0, SmoothingParams(X=1e3))

    def test_truncation_soundness(self, sp4):
        L = get_preset("zeta")
        coarse = smoothed_value(L, 0.5, 30.0, sp4)
        fine = smoothed_value(L, 0.5, 30.0,
                              SmoothingParams(p=2.0, X=1e4, epsilon=1e-13))
        assert abs(coarse.value - fine.value) <= coarse.tail_bound

    def test_tail_bound_is_conservative(self):
        # drop epsilon by 10x: the value moves by less than the coarse bound
        L = get_preset("zeta-shift-pair")
        a = smoothed_value(L, 0.5, 12.0, SmoothingParams(X=2e3, epsilon=1e-10))
        b = smoothed_value(L, 0.5, 12.0, SmoothingParams(X=2e3, epsilon=1e-11))
        assert abs(a.value - b.value) <= a.tail_bound

    def test_x_doubling_cauchy_raw(self):
        # without corrections (the main-series row), successive X-doublings
        # decay geometrically
        L = get_preset("zeta")
        vals = [main_series_value(L, 0.5, 30.0, SmoothingParams(X=1000.0 * 2 ** j))
                for j in range(5)]
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        for d1, d2 in zip(diffs, diffs[1:]):
            assert d2 <= 0.5 * d1

    def test_x_doubling_cauchy_corrected(self):
        L = get_preset("zeta")
        vals = [smoothed_value(L, 0.5, 30.0, SmoothingParams(X=1000.0 * 2 ** j)).value
                for j in range(4)]
        truth = reference_zeta(0.5 + 30j)
        for v in vals:
            assert abs(v - truth) < 1e-9


class TestConjugateEvaluator:
    def test_chi4_conjugated_series(self, sp4):
        # Ft(1 - z - it), the series with conjugated coefficients, is
        # conj(F(1 - conj(z) + it)); direct summation oracle (raw series)
        L = get_preset("dirichlet-chi4")
        z = 0.5
        got = main_series_value(L, 1.0 - z, 20.0, sp4).conjugate()
        n = np.arange(1, 60001, dtype=float)
        chi = np.zeros(60000)
        chi[0::4] = 1.0   # n = 1 mod 4
        chi[2::4] = -1.0  # n = 3 mod 4
        s = 0.5 + 20j
        direct = np.sum(chi * np.exp(-((n / 1e4) ** 2)) * n ** -(1 - s))
        assert abs(got - direct) < 1e-10
        # with corrections the value is conj(beta) at the reflected point
        corrected = smoothed_value(L, 1.0 - z, 20.0, sp4).value.conjugate()
        assert abs(corrected - BETA_CRITICAL[20.0].conjugate()) < 1e-9


class TestFECrossCheck:
    @pytest.mark.parametrize("name, t, bound", [
        ("zeta", 30.0, 1e-6),
        ("dirichlet-chi4", 20.0, 1e-6),
        ("delta", 20.0, 1e-5),
    ])
    def test_defects(self, name, t, bound, sp4):
        assert fe_cross_check(get_preset(name), t, sp4) < bound

    @pytest.mark.parametrize("name", ["zeta", "zeta-doubled", "dirichlet-chi4",
                                      "zeta-sq", "zeta-shift-pair",
                                      "zeta-scaled", "delta"])
    def test_defect_stays_small_under_x_doubling(self, name):
        L = get_preset(name)
        defects = [fe_cross_check(L, 20.0, SmoothingParams(X=X))
                   for X in (2e3, 4e3, 8e3)]
        assert all(d < 1e-5 for d in defects)

    def test_wrong_root_number_blows_up(self):
        # flipping omega must produce an O(1) defect: the check has teeth
        from twistlab.model import FunctionalEquationData
        base = get_preset("dirichlet-chi4")
        fe = FunctionalEquationData(Q=base.fe.Q, omega=-1.0,
                                    gamma=base.fe.gamma, poles=base.fe.poles)
        bad = LSeriesInstance("chi4-bad-omega", base.coefficients, fe, base.sigma_a)
        assert fe_cross_check(bad, 20.0, SmoothingParams(X=4e3)) > 0.5


class TestLineEvaluator:
    def test_matches_pointwise(self):
        L = get_preset("zeta")
        sp = SmoothingParams(X=2000.0)
        line = SmoothedLineEvaluator(L, sp)
        ts = np.array([40.0, 55.0, 73.0])
        vals = line.values(ts)
        for t, v in zip(ts, vals):
            want = smoothed_value(L, 0.5, float(t), sp).value
            assert abs(v - want) < 1e-10

    def test_needs_explicit_cutoff(self):
        with pytest.raises(ValueError):
            SmoothedLineEvaluator(get_preset("zeta"), SmoothingParams())

    def test_refuses_overflowing_coefficients(self):
        # far left of the strip e^{-(n/X)^p} n^{300} overflows below X, where
        # the weight is still ~1; the phase sums would be nan
        sp = SmoothingParams(p=200.0, X=1000.0)
        with pytest.raises(ValueError, match=r"sigma=-300\.0 .* n=11$"):
            SmoothedLineEvaluator(get_preset("zeta"), sp, sigma=-300.0)
        with pytest.raises(ValueError, match="not finite"):
            smoothed_value(get_preset("zeta"), -300.0, 30.0, sp)

    @pytest.mark.parametrize("t_set", sorted(KERNEL_T_SETS))
    @pytest.mark.parametrize("sigma", [0.5, 0.6])
    @pytest.mark.parametrize("name", ["zeta", "zeta-sq", "dirichlet-chi4", "delta",
                                      "complex-pattern"])
    def test_kernel_matches_dense_oracle(self, name, sigma, t_set):
        # 1e-11 absolute, relative once |F| > 1: at t ~ 1000 the degree-2
        # corrections scale the residue series' rounding, which the dense
        # formula shares, up with |F| (~1e5 at this X)
        ev = SmoothedLineEvaluator(kernel_series(name), SmoothingParams(X=1000.0),
                                   sigma=sigma)
        # an evaluator that has already seen another set: its cached
        # centres are reused
        ev.values(SEEN_FIRST)
        t = KERNEL_T_SETS[t_set](name)
        got = ev.values(t)
        want = dense_line_values(ev, t)
        assert got.shape == t.shape
        assert np.all(np.abs(got - want) <= 1e-11 * max(1.0, np.abs(want).max(initial=0.0)))

    def test_single_point_is_one_phase_row(self):
        ev = SmoothedLineEvaluator(get_preset("zeta-sq"), SmoothingParams(X=2000.0))
        ev.values(np.array([30.0]))
        assert ev.phase_evals == max(coef.size for coef in ev._coefs)

    def test_level_two_forms_no_new_phase_rows(self):
        # both quadrature levels of one interval share the centre grid, the
        # multiples of the spacing; each centre's phase row is formed once
        ev = SmoothedLineEvaluator(get_preset("zeta"), SmoothingParams(X=2000.0))
        a, b = 754.0, 1131.0
        level1 = _panel_nodes(a, b, 64)[0]
        level2 = _panel_nodes(a, b, 128)[0]
        ev.values(level1)
        first = ev.phase_evals
        ev.values(level2)
        assert ev.phase_evals == phase_entries(ev, [level1, level2])
        # at most the two ends and their anchor rows
        assert ev.phase_evals - first <= 4 * ev.width

    def test_values_do_not_depend_on_call_history(self):
        # the centre grid is fixed and a centre's sums do not depend on the
        # call that formed them, so the same nodes give the same bits
        # whichever call an evaluator sees first (forwards, one centre is
        # formed alone; backwards, with all others; the small-t and large-t
        # sets sit far apart on the grid, and the last set mixes both in one
        # call)
        sets = [np.array([231.25, 231.3, 231.4]), np.array([5.1, 5.6, 6.3]),
                np.array([5.35, 231.33])] + [
            _panel_nodes(a, a + 60.0, n)[0] for a in (200.0, 230.0) for n in (24, 48)]
        orders = [range(len(sets)), range(len(sets) - 1, -1, -1)]
        orders += [[i] for i in range(len(sets))]  # each set on a fresh evaluator
        results = {}
        for order in orders:
            ev = SmoothedLineEvaluator(get_preset("zeta-sq"), SmoothingParams(X=2000.0))
            for i in order:
                results.setdefault(i, []).append(ev.values(sets[i]))
        for i in range(len(sets)):
            assert all(np.array_equal(results[i][0], got) for got in results[i][1:])

    def test_shared_evaluator_is_thread_safe(self):
        # threads share one fresh evaluator and call it on interleaved
        # level-1 and level-2 node sets (one set a lone centre); every result
        # equals the serial result bit for bit
        sets = [_panel_nodes(a, a + 50.0, n)[0]
                for a in (300.0, 320.0, 345.0) for n in (20, 40)]
        sets.append(np.array([331.2, 331.3]))
        orders = ([6, 0, 1, 2, 3, 4, 5], [5, 2, 3, 0, 4, 1, 6], [1, 6, 4, 3, 0, 5, 2])
        serial = SmoothedLineEvaluator(get_preset("zeta"), SmoothingParams(X=3000.0))
        want = [serial.values(t) for t in sets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                shared = SmoothedLineEvaluator(get_preset("zeta"), SmoothingParams(X=3000.0))
                failures, start = [], threading.Barrier(len(orders))

                def run(order):
                    start.wait(timeout=30.0)
                    for i in order:
                        try:
                            got = shared.values(sets[i])
                        except Exception as exc:
                            failures.append(repr(exc))
                            continue
                        if not np.array_equal(got, want[i]):
                            failures.append(f"set {i} differs")

                threads = [threading.Thread(target=run, args=(order,)) for order in orders]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not failures, failures
        finally:
            sys.setswitchinterval(interval)


def zeta_t60_block():
    """The evaluator of H_direct(zeta, T = 60) and the indices j of the
    centres j spacing that cover K_T."""
    L, sp, T = get_preset("zeta"), SmoothingParams(), 60.0
    ev = SmoothedLineEvaluator(L, sp.with_X(sp.cutoff(T, 1.0)))
    alpha = L.resonance_alpha(1)
    index = np.arange(np.rint(2.0 * alpha * T / ev.spacing),
                      np.rint(3.0 * alpha * T / ev.spacing) + 1.0)
    return ev, index


def sieve_rows(t, width):
    """t and _phase_rows(t) over n = 1..width."""
    return t, evaluate._phase_rows(t, np.log(np.arange(1, width + 1, dtype=np.float64)))


def block_rows():
    """The centres of the zeta T = 60 block and their _phase_rows."""
    ev, index = zeta_t60_block()
    return sieve_rows(index * ev.spacing, ev.width)


def product_rows():
    """The centres of the zeta T = 60 block and the anchor-times-offset
    phase rows that _form_sums forms for them."""
    ev, index = zeta_t60_block()
    rows = np.empty((index.size, ev.width), dtype=complex)
    for c, row in ev._phase_products(index):
        rows[c] = row
    return index * ev.spacing, rows


#: (t values, their phase rows) checked against mpmath
PHASE_ROW_CASES = {
    "zeta-T60-block": block_rows,
    "zeta-T60-products": product_rows,
    # the main series of smoothed_value(zeta, 1/2 + 37.5i) at X = 1e4
    "row-53868": lambda: sieve_rows(np.array([37.5]), 53868),
    # the main series of eval --preset zeta-sq at X = 1e5
    "row-611016": lambda: sieve_rows(np.array([190.0]), 611016),
}


def empty_sieve(monkeypatch):
    monkeypatch.setattr(evaluate, "_sieve", (np.empty(0, dtype=np.intp),) * 3)


class TestPhaseRows:
    @pytest.mark.parametrize("case", sorted(PHASE_ROW_CASES))
    def test_as_accurate_as_direct_exponential(self, case):
        # at 400 random entries and at every power of 2 (the longest product
        # chains), against e^{-it ln n} to 40 digits with t as given: the
        # rms error is no larger than that of exp(-i t ln n) in double, and
        # the largest within 1.25 times its largest (both are set by the
        # rounding of t ln n, up to |t ln n| 2^-53).  The anchor-times-offset
        # rows meet this only because their two arguments sum to t exactly.
        mpmath = pytest.importorskip("mpmath")
        t, phases = PHASE_ROW_CASES[case]()
        width = phases.shape[1]
        lnn = np.log(np.arange(1, width + 1, dtype=np.float64))
        rng = np.random.default_rng(11)
        powers = 2 ** np.arange(1, int(math.log2(width)) + 1) - 1
        cols = np.concatenate([rng.integers(0, width, 400), powers])
        rows = rng.integers(0, t.size, cols.size)
        got = phases[rows, cols]
        direct = np.exp(-1j * t[rows] * lnn[cols])
        with mpmath.workdps(40):
            want = [mpmath.expj(-mpmath.mpf(float(t[r])) * mpmath.log(int(c) + 1))
                    for r, c in zip(rows, cols)]
        err_got = np.array([float(abs(complex(v) - w)) for v, w in zip(got, want)])
        err_direct = np.array([float(abs(complex(v) - w)) for v, w in zip(direct, want)])
        assert np.sqrt(np.mean(err_got ** 2)) <= np.sqrt(np.mean(err_direct ** 2))
        assert err_got.max() <= 1.25 * err_direct.max()

    def test_bits_do_not_depend_on_the_widths_before(self, monkeypatch):
        # the shared plan grows to the longest width asked for; a shorter
        # width takes a prefix of it and gets the bits it got before
        empty_sieve(monkeypatch)
        sp = SmoothingParams(X=2000.0)
        short = SmoothedLineEvaluator(get_preset("zeta"), sp)
        ts = [np.array([31.5]), np.linspace(40.0, 60.0, 9)]
        before = [short.values(t) for t in ts]
        width = evaluate._sieve[1].size
        longer = SmoothedLineEvaluator(get_preset("zeta-sq"), SmoothingParams(X=2e4))
        longer.values(np.array([31.5]))
        assert evaluate._sieve[1].size > width
        again = SmoothedLineEvaluator(get_preset("zeta"), sp)
        for t, want in zip(ts, before):
            assert np.array_equal(short.values(t), want)
            assert np.array_equal(again.values(t), want)

    def test_concurrent_growth_gives_serial_bits(self, monkeypatch):
        # threads build evaluators of different widths at once, each on an
        # empty shared plan, so they grow and publish it concurrently
        cases = [("zeta", 1000.0), ("zeta-sq", 4000.0), ("zeta", 9000.0),
                 ("dirichlet-chi4", 3000.0), ("zeta-sq", 12000.0)]
        ts = [np.array([27.25]), np.linspace(30.0, 45.0, 11)]

        def run(name, X):
            ev = SmoothedLineEvaluator(get_preset(name), SmoothingParams(X=X))
            return [ev.values(t) for t in ts]

        want = [run(*case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                empty_sieve(monkeypatch)
                got, start = [None] * len(cases), threading.Barrier(len(cases))

                def work(i):
                    start.wait(timeout=30.0)
                    got[i] = run(*cases[i])

                threads = [threading.Thread(target=work, args=(i,))
                           for i in range(len(cases))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                for i in range(len(cases)):
                    assert got[i] is not None, cases[i]
                    assert all(np.array_equal(g, w) for g, w in zip(got[i], want[i])), cases[i]
        finally:
            sys.setswitchinterval(interval)


#: (preset, sigma, nodes, evaluator X): the correction cases
CORRECTION_CASES = {
    # degree 2, small |Im| of the Gamma arguments: the shift is active
    "zeta-sq-shifted": ("zeta-sq", 0.5, np.linspace(2.0, 20.0, 181), 1000.0),
    "delta-shifted": ("delta", 0.5, np.linspace(2.0, 20.0, 181), 1000.0),
    # the pole-term argument (1 - sigma - it)/p has Re < 1/2 (reflected)
    "zeta-reflected": ("zeta", 0.6, np.linspace(-40.0, 40.0, 321), 1000.0),
    # nodes next to the pole term's Gamma pole at t = 0
    "zeta-near-pole": ("zeta", 0.5, np.linspace(-3.0, 3.0, 61), 1000.0),
    "zeta-sq-order-2": ("zeta-sq", 0.6, np.linspace(5.0, 90.0, 341), 3000.0),
    "chi4-no-pole": ("dirichlet-chi4", 0.5, np.linspace(2.5, 60.0, 231), 1000.0),
}


class TestCorrectionSteps:
    @staticmethod
    def evaluator(case):
        name, sigma, t, X = CORRECTION_CASES[case]
        return SmoothedLineEvaluator(get_preset(name), SmoothingParams(X=X), sigma=sigma), t

    @pytest.mark.parametrize("case", sorted(CORRECTION_CASES))
    def test_corrections_match_per_node_definition(self, case):
        # end to end: both routes exponentiate exponents up to |E| ~ 900,
        # whose own rounding (|E| 2^-53 ~ 1e-13) sets the tolerance
        ev, t = self.evaluator(case)
        ft = np.random.default_rng(3).standard_normal((ev._x_k.shape[0], t.size)) * (1 + 1j)
        got = ev._corrections(t, ft)
        want, scale = direct_corrections(ev, t, ft)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_cases_cover_shift_and_reflection(self):
        shifted = reflected = False
        for case in CORRECTION_CASES:
            ev, t = self.evaluator(case)
            args = _ratio_args(ev.L.fe.gamma, ev._x_k, t)[0].ravel()
            args = np.concatenate([args] + [(pole.location - ev.sigma - 1j * t) / ev.sp.p
                                            for pole in ev._poles])
            reduced = np.where(args.real < 0.5, 1 - args, args)
            shifted |= bool(np.any(np.abs(reduced) < 16))
            reflected |= bool(np.any(args.real < 0.5))
        assert shifted and reflected
