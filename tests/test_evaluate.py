"""Evaluator tests: smoothed sums, the zeta oracle, FE cross-checks.

zeta and beta reference values were computed ahead of the build with a
25-digit arbitrary-precision library and frozen here.
"""
import math

import numpy as np
import pytest

from twistlab.errors import PoleError
from twistlab.evaluate import (SmoothedLineEvaluator, fe_cross_check,
                               reference_zeta, smoothed_value,
                               smoothed_value_conjugate)
from twistlab.model import SmoothingParams
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
}
ORACLE_ROWS = (
    [pytest.param("zeta", 0.5, t, id=repr(t)) for t in sorted(ZETA_CRITICAL)]
    + [pytest.param(name, sigma, t, id=f"{name}-{sigma}-{t}")
       for name in ORACLES for sigma in (0.5, 0.6) for t in (20.0, 40.0)
       if (name, sigma) != ("zeta", 0.5)])


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


class TestSmoothedValue:
    def test_basel_with_small_cutoff(self):
        L = get_preset("zeta")
        ev = smoothed_value(L, 2.0, 0.0, SmoothingParams(X=1e3))
        assert abs(ev.value - math.pi ** 2 / 6) < 1e-6

    @pytest.mark.parametrize("name, sigma, t", ORACLE_ROWS)
    def test_matches_oracle_on_critical_line(self, name, sigma, t, sp4):
        ev = smoothed_value(get_preset(name), sigma, t, sp4)
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
        # without corrections, successive X-doublings decay geometrically
        L = get_preset("zeta")
        vals = [smoothed_value(L, 0.5, 30.0, SmoothingParams(X=1000.0 * 2 ** j),
                               corrections=False).value for j in range(5)]
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
    def test_real_coefficients_identity(self, sp4):
        L = get_preset("zeta")
        lhs = smoothed_value_conjugate(L, 0.5, 30.0, sp4).value
        rhs = smoothed_value(L, 0.5, 30.0, sp4).value.conjugate()
        assert abs(lhs - rhs) < 1e-12

    def test_chi4_conjugated_series(self, sp4):
        # direct summation oracle with conjugated coefficients (raw series)
        L = get_preset("dirichlet-chi4")
        got = smoothed_value_conjugate(L, 0.5, 20.0, sp4, corrections=False).value
        n = np.arange(1, 60001, dtype=float)
        chi = np.zeros(60000)
        chi[0::4] = 1.0   # n = 1 mod 4
        chi[2::4] = -1.0  # n = 3 mod 4
        s = 0.5 + 20j
        direct = np.sum(chi * np.exp(-((n / 1e4) ** 2)) * n ** -(1 - s))
        assert abs(got - direct) < 1e-10
        # with corrections the value is conj(beta) at the reflected point
        corrected = smoothed_value_conjugate(L, 0.5, 20.0, sp4).value
        assert abs(corrected - BETA_CRITICAL[20.0].conjugate()) < 1e-9

    def test_off_center_reflection(self, sp4):
        L = get_preset("zeta")
        lhs = smoothed_value_conjugate(L, 0.6, 25.0, sp4).value
        rhs = smoothed_value(L, 0.4, 25.0, sp4).value.conjugate()
        assert abs(lhs - rhs) < 1e-12


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
        from twistlab.model import FunctionalEquationData, LSeriesInstance
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
