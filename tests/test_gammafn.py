"""Log-gamma and gamma-ratio tests.

Reference values were computed ahead of the build with a 25-digit
arbitrary-precision library and frozen here.
"""
import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from twistlab import evaluate
from twistlab.errors import PoleError, SectorError
from twistlab.gammafn import (_DIGAMMA, _STIRLING, _digamma_vec, _log_gamma_vec,
                              gamma_ratio_asymptotic, gamma_ratio_compare,
                              gamma_ratio_exact_grid, log_gamma,
                              sector_threshold)
from twistlab.model import GammaFactorSpec
from twistlab.presets import get_preset

# (z, loggamma(z)) frozen from the high-precision oracle
LOGGAMMA_REFERENCE = [
    (1 + 1j, -0.65092319930185633889 - 0.30164032046753319789j),
    (0.5 + 0j, 0.57236494292470008707 + 0.0j),
    (0.25 - 5j, -7.3370880842091811277 - 2.656575032957105579j),
    (3 + 40j, -52.689155060822636631 + 111.4051324154599655j),
    (-0.5 + 0j, 1.2655121234846453965 - 3.1415926535897932385j),
    (0.1 + 0.2j, 1.4196225566088014808 - 1.1894584561916535074j),
    (-2.5 + 1j, -2.3441906524655925559 - 8.3041279866579258844j),
    (0.125 - 250j, -393.85069090034259205 - 1129.7760662595662125j),
]

#: per-(preset, x) frozen constants c with rel_err(t) <= c/t on [50, 800]
RATIO_ERROR_CONSTANTS = {
    ("zeta", 0.5): 0.048, ("zeta", 0.6): 0.043, ("zeta", 0.75): 0.012,
    ("zeta-doubled", 0.5): 0.048, ("zeta-doubled", 0.6): 0.043,
    ("zeta-doubled", 0.75): 0.012,
    ("dirichlet-chi4", 0.5): 0.048, ("dirichlet-chi4", 0.6): 0.043,
    ("dirichlet-chi4", 0.75): 0.012,
    ("zeta-sq", 0.5): 0.096, ("zeta-sq", 0.6): 0.085, ("zeta-sq", 0.75): 0.024,
    ("zeta-shift-pair", 0.5): 0.20, ("zeta-shift-pair", 0.6): 0.21,
    ("zeta-shift-pair", 0.75): 0.27,
    ("zeta-scaled", 0.5): 0.024, ("zeta-scaled", 0.6): 0.013,
    ("zeta-scaled", 0.75): 0.048,
    ("delta", 0.5): 34.7, ("delta", 0.6): 34.8, ("delta", 0.75): 34.8,
}

DOUBLING_GRID = [50.0, 100.0, 200.0, 400.0, 800.0]


class TestLogGamma:
    @pytest.mark.parametrize("z, expected", LOGGAMMA_REFERENCE)
    def test_reference_values(self, z, expected):
        got = log_gamma(z)
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_gamma_one_is_zero(self):
        assert abs(log_gamma(1.0)) < 1e-13

    def test_half_closed_form(self):
        assert log_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)))

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)

    def test_recurrence(self):
        for z in (0.7 + 3j, 2.5 - 0.5j, -1.3 + 0.2j):
            lhs = log_gamma(z + 1)
            rhs = log_gamma(z) + cmath.log(z)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_digamma_against_difference_quotient(self):
        for z in (3.5 + 2j, 0.25 + 10j, -1.2 + 0.7j):
            h = 1e-6
            approx = (log_gamma(z + h) - log_gamma(z - h)) / (2 * h)
            assert abs(_digamma_vec(z) - approx) < 1e-7

    @pytest.mark.parametrize("kernel", [_digamma_vec, _log_gamma_vec],
                             ids=lambda k: k.__name__)
    def test_vector_matches_scalar(self, kernel):
        # entries needing shifts from 0 to 16: each is reduced on its own,
        # so the array call gives every entry's 0-d value bit for bit
        z = np.array([3.5 + 2j, 0.25 + 10j, -1.2 + 0.7j, 0.1 - 30j,
                      -5.5 + 0.01j, 0.4, -0.3 - 200j, 100 + 1000j, 7.0])
        got = kernel(z)
        want = np.array([kernel(zi) for zi in z])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def bernoulli_numbers(m_max: int):
    """B_0..B_m_max exactly, from sum_{j<=m} C(m+1, j) B_j = 0."""
    B = [Fraction(1)]
    for m in range(1, m_max + 1):
        B.append(-sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return B


class TestBernoulliConstants:
    # at |z| >= 16 the k = 11 Stirling term is below 1e-24, so no value
    # test sees a mistyped high entry: each constant is checked bit for bit
    # against the exact Bernoulli numbers, rounded once

    B = bernoulli_numbers(26)

    def test_recurrence_oracle(self):
        assert self.B[:5] == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
        assert self.B[26] == Fraction(8553103, 6)

    def test_stirling_coefficients(self):
        want = [float(self.B[2 * k] / (2 * k * (2 * k - 1))) for k in range(1, 12)]
        assert [c.hex() for c in _STIRLING] == [w.hex() for w in want]

    def test_digamma_coefficients(self):
        want = [float(self.B[2 * k] / (2 * k)) for k in range(1, 9)]
        assert [c.hex() for c in _DIGAMMA] == [w.hex() for w in want]

    def test_euler_maclaurin_oracle_numbers(self):
        # the zeta oracle keeps its own table: it must agree, not share
        want = [float(self.B[2 * k]) for k in range(1, 13)]
        assert [c.hex() for c in evaluate._EM_BERNOULLI] == [w.hex() for w in want]
        assert evaluate._EM_B26.hex() == float(self.B[26]).hex()


class TestGammaRatio:
    def test_empty_spec_is_one(self):
        spec = GammaFactorSpec((), ())
        assert gamma_ratio_exact_grid(spec, 0.6, 10.0) == pytest.approx(1.0)

    def test_pointwise_in_t(self):
        # t = 0.5 needs a longer argument shift than t = 40; each Gamma
        # argument is reduced on its own, so t = 0.5 cannot move t = 40
        spec = get_preset("zeta").fe.gamma
        together = gamma_ratio_exact_grid(spec, 0.5, np.array([0.5, 40.0]))
        alone = gamma_ratio_exact_grid(spec, 0.5, np.array([40.0]))
        assert np.array_equal(together[1:].view(np.int64), alone.view(np.int64))

    def test_unit_modulus_on_critical_line_exact(self):
        for name in ("zeta", "delta", "zeta-shift-pair"):
            spec = get_preset(name).fe.gamma
            for t in (30.0, 150.0):
                assert abs(abs(gamma_ratio_exact_grid(spec, 0.5, t)) - 1.0) < 1e-12

    def test_unit_modulus_on_critical_line_asymptotic(self):
        for name in ("zeta", "delta", "zeta-shift-pair"):
            spec = get_preset(name).fe.gamma
            assert abs(abs(gamma_ratio_asymptotic(spec, 0.5, 100.0)) - 1.0) < 1e-12

    @pytest.mark.parametrize("name, x", sorted(RATIO_ERROR_CONSTANTS))
    def test_error_law(self, name, x):
        spec = get_preset(name).fe.gamma
        c = RATIO_ERROR_CONSTANTS[(name, x)]
        errs = [gamma_ratio_compare(spec, x, t).relative_error for t in DOUBLING_GRID]
        for t, err in zip(DOUBLING_GRID, errs):
            assert err <= c / t, f"{name} x={x} t={t}: {err} > {c}/t"
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 <= 0.6 * e1 * 1.05  # halving, 5% jitter allowance

    def test_sign_flipped_phase_constant_fails_the_oracle(self):
        # with B replaced by -B the asymptotic stops converging to the
        # exact ratio: the error stalls at O(1) instead of O(1/t)
        spec = get_preset("zeta").fe.gamma
        t = 400.0
        exact = gamma_ratio_exact_grid(spec, 0.5, t)
        good = gamma_ratio_asymptotic(spec, 0.5, t)
        flipped = good * cmath.exp(-2j * math.pi / 4)  # e^{-iB} vs e^{+iB}
        assert abs(exact - good) / abs(good) < 1e-3
        assert abs(exact - flipped) / abs(flipped) > 1.0

    def test_modulus_decay_bound(self):
        # |ratio(0.6 + it)| <= K (1+t)^{-d/10} with a small frozen K
        for name, K in (("zeta", 1.2), ("delta", 1.2)):
            spec = get_preset(name).fe.gamma
            d = 2.0 * sum(l for l, _ in spec.numerator)
            for t in DOUBLING_GRID:
                got = abs(gamma_ratio_exact_grid(spec, 0.6, t))
                assert got <= K * (1.0 + t) ** (-d * 0.1)

    def test_sector_threshold_enforced(self):
        spec = get_preset("delta").fe.gamma  # threshold 2*(5.5+1)/1 = 13
        assert sector_threshold(spec) == pytest.approx(13.0)
        with pytest.raises(SectorError):
            gamma_ratio_asymptotic(spec, 0.5, 5.0)

    def test_matches_asymptotic_within_two_over_t(self):
        spec = get_preset("zeta").fe.gamma
        r = gamma_ratio_compare(spec, 0.6, 100.0)
        assert r.relative_error < 2.0 / 100.0

    def test_delta_phase_agreement(self):
        # the error is almost pure phase drift; its measured constant is
        # ~30.2/t for this shape (large mu), frozen with headroom
        spec = get_preset("delta").fe.gamma
        r = gamma_ratio_compare(spec, 0.5, 100.0)
        dphi = cmath.phase(r.exact / r.asymptotic)
        assert abs(dphi) < 34.8 / 100.0
        r2 = gamma_ratio_compare(spec, 0.5, 800.0)
        assert abs(cmath.phase(r2.exact / r2.asymptotic)) < abs(dphi) / 4

    def test_pole_collision_signal(self):
        # Im(mu) = -lambda t makes the reflected argument real: -1 at x=2
        spec = GammaFactorSpec(((1.0, -1j),))
        with pytest.raises(PoleError):
            gamma_ratio_exact_grid(spec, 2.0, 1.0)
