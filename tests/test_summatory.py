"""Summatory, twist, and certificate tests.

The shift-pair leading constant (2/3) zeta(2), the resonant chi4 band 1.5,
and the weight-12 band 1.72 were measured with direct-summation oracles and
frozen; see also the acceptance module.
"""
import dataclasses
import math

import numpy as np
import pytest

from twistlab.coefficients import PeriodicProvider
from twistlab.model import GammaFactorSpec, LSeriesInstance, SmoothingParams
from twistlab.presets import get_preset
from twistlab.summatory import (TWIST_RHO, _loglog_fit, abs_partial_sum,
                                additive_twist, omega_certificate,
                                run_growth_scan, run_twist_scan)
from twistlab.transforms import H_direct, H_fe_side, H_sum_side, kappa

TWO_PI = 2 * math.pi
ZETA2 = math.pi ** 2 / 6


def twist_sp() -> SmoothingParams:
    return SmoothingParams(rho=TWIST_RHO)


class TestAbsPartialSum:
    def test_zeta_floor(self):
        L = get_preset("zeta")
        assert abs_partial_sum(L, 1000.5) == 1000.0
        assert abs_partial_sum(L, 1.0) == 0.0

    def test_shift_pair_constant(self):
        got = abs_partial_sum(get_preset("zeta-shift-pair"), 1e4)
        want = (2.0 / 3.0) * ZETA2 * 1e4 ** 1.5
        assert got == pytest.approx(want, rel=0.02)

    def test_scaled_staircase(self):
        # support on squares: sum k^{1/2} over k^2 < X
        got = abs_partial_sum(get_preset("zeta-scaled"), 145.0)
        want = sum(math.sqrt(k) for k in range(1, 13))
        assert got == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("X", [math.nan, math.inf, 0.5])
    def test_bad_X_refused(self, X):
        with pytest.raises(ValueError, match=f"X must be finite and >= 1, got {X}"):
            abs_partial_sum(get_preset("zeta"), X)

    def test_range_edges(self):
        # n < 1 is the empty table, n < 1.5 holds a_1 alone
        L = get_preset("dirichlet-chi4")
        assert abs_partial_sum(L, 1.0) == 0.0
        assert abs_partial_sum(L, 1.5) == abs(L.coefficients.coefficient(1))
        assert abs_partial_sum(get_preset("delta"), 1.5) == 1.0


class TestAdditiveTwist:
    def test_zeta_resonant_anchor(self):
        L = get_preset("zeta")
        for T in (1e3, 1e4):
            tw = additive_twist(L, TWO_PI, T, twist_sp())
            assert abs(tw.imag) < 1e-6 * abs(tw.real)  # real positive
            assert abs(tw) == pytest.approx(3.0 * T, rel=0.002)

    def test_zeta_twist_equals_weight_sum(self):
        # unit phases: the twist must equal the plain weighted count
        L = get_preset("zeta")
        T = 500.0
        sp = twist_sp()
        tw = additive_twist(L, TWO_PI, T, sp)
        n = np.arange(501, 2000, dtype=float)
        weights = float(np.sum(np.exp(-((n / T ** 2) ** 2))))
        assert abs(tw - weights) <= 1e-9 * weights

    def test_chi4_resonant_band(self):
        L = get_preset("dirichlet-chi4")
        alpha = L.resonance_alpha(1)
        assert alpha == pytest.approx(math.pi / 2)
        tw = additive_twist(L, alpha, 1000.0, twist_sp())
        assert abs(tw) / 1000.0 == pytest.approx(1.5, abs=0.05)

    def test_delta_dyadic_band(self):
        # measured once with the exact tau table and frozen: the normalized
        # twist sits at 1.722 with +-25% headroom over the dyadic grid
        L = get_preset("delta")
        for j in (10, 12, 14):
            T = float(2 ** j)
            tw = additive_twist(L, TWO_PI, T, twist_sp())
            assert 1.72 * 0.75 <= abs(tw) / T ** 0.75 <= 1.72 * 1.25

    def test_below_one_sums_its_window(self):
        # (0.5, 2) holds n = 1: a_1 e^{-(1/X)^p} e^{-i d alpha}, X = 0.5^{d+rho}
        sp = twist_sp()
        X = 0.5 ** (1.0 + sp.rho)
        want = 1.0 * np.exp(-((1.0 / X) ** sp.p)) * np.exp(-1j * TWO_PI)
        got = additive_twist(get_preset("zeta"), TWO_PI, 0.5, sp)
        assert got == want
        assert got != 0.0


class TestGrowthExponent:
    def test_zeta_slope(self):
        rep = run_growth_scan(get_preset("zeta"), [2.0 ** j for j in range(7, 14)])
        assert rep.slope == pytest.approx(1.0, abs=0.005)

    def test_shift_pair_slope(self):
        rep = run_growth_scan(get_preset("zeta-shift-pair"),
                              [2.0 ** j for j in range(7, 14)])
        assert rep.slope == pytest.approx(1.5, abs=0.02)

    def test_scaled_threshold_slope(self):
        rep = run_growth_scan(get_preset("zeta-scaled"),
                              [2.0 ** j for j in range(7, 14)])
        assert rep.slope == pytest.approx(0.75, abs=0.03)

    def test_scale_invariance(self):
        base = get_preset("zeta")
        scaled = LSeriesInstance("zeta-x7", PeriodicProvider([7.0]),
                                 base.fe, base.sigma_a)
        grid = [2.0 ** j for j in range(7, 12)]
        r1 = run_growth_scan(base, grid)
        r2 = run_growth_scan(scaled, grid)
        assert r2.slope == pytest.approx(r1.slope, abs=1e-12)
        assert r2.intercept - r1.intercept == pytest.approx(math.log(7.0), abs=1e-12)

    def test_degenerate_grids(self):
        with pytest.raises(ValueError):
            _loglog_fit([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])  # too few
        with pytest.raises(ValueError):
            _loglog_fit([1.0, 2.0, 2.0, 8.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            _loglog_fit([1.0, 2.0, 4.0, 8.0], [1.0, -2.0, 3.0, 4.0])

    def test_growth_scan_reports_the_fit(self):
        grid = [2.0 ** j for j in range(7, 12)]
        rep = run_growth_scan(get_preset("zeta-sq"), grid)
        slope, _, stderr = _loglog_fit(grid, rep.sums)
        assert (rep.slope, rep.slope_stderr) == (slope, stderr)

    def test_stderr_reported(self):
        grid = [2.0 ** j for j in range(4, 10)]
        slope, _, stderr = _loglog_fit(grid, [g ** 1.5 for g in grid])
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert stderr < 1e-12


class TestTwistScan:
    def test_delta_slope(self):
        L = get_preset("delta")
        rep = run_twist_scan(L, TWO_PI, [float(2 ** j) for j in range(10, 15)],
                             twist_sp())
        assert rep.slope == pytest.approx(0.75, abs=0.05)
        for T, tw, nm in zip(rep.grid, rep.twist_values, rep.normalized):
            assert nm == abs(tw) / T ** 0.75


    def test_scan_matches_pointwise_twists(self):
        # the scan slices one table built for the largest T; each value
        # must equal the twist computed from its own table
        L = get_preset("zeta-shift-pair")
        grid = [10.0 * 1.7 ** j for j in range(9)]
        rep = run_twist_scan(L, TWO_PI, grid, twist_sp())
        assert rep.twist_values == tuple(additive_twist(L, TWO_PI, T, twist_sp())
                                         for T in grid)

    def test_degree_below_one_rejected_on_every_path(self):
        base = get_preset("zeta")
        fe = dataclasses.replace(base.fe, gamma=GammaFactorSpec(((0.25, 0.0),)))
        L = dataclasses.replace(base, fe=fe)
        assert L.invariants().d < 1.0
        kap = kappa(base, TWO_PI, 1)
        grid = [float(2 ** j) for j in range(5, 9)]
        with pytest.raises(ValueError):
            additive_twist(L, TWO_PI, 100.0, twist_sp())
        with pytest.raises(ValueError):
            run_twist_scan(L, TWO_PI, grid, twist_sp())
        with pytest.raises(ValueError):
            omega_certificate(L, TWO_PI, 1, kap, grid, twist_sp())

    @pytest.mark.parametrize("alpha", [math.nan, -3.0, 0.0, math.inf])
    def test_bad_alpha_rejected_before_any_table(self, alpha):
        class Untouched(PeriodicProvider):
            def coefficient(self, n):
                raise AssertionError("coefficient read")

            def bulk(self, N):
                raise AssertionError("table built")

        base = get_preset("zeta")
        L = dataclasses.replace(base, coefficients=Untouched([1.0]))
        kap = kappa(base, TWO_PI, 1)
        grid = [float(2 ** j) for j in range(5, 9)]
        with pytest.raises(ValueError, match="alpha"):
            additive_twist(L, alpha, 100.0, twist_sp())
        with pytest.raises(ValueError, match="alpha"):
            run_twist_scan(L, alpha, grid, twist_sp())
        with pytest.raises(ValueError, match="alpha"):
            omega_certificate(L, alpha, 1, kap, grid, twist_sp())

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_bad_T_refused_before_any_table(self, T):
        class Untouched(PeriodicProvider):
            def coefficient(self, n):
                raise AssertionError("coefficient read")

            def bulk(self, N):
                raise AssertionError("table built")

        base = get_preset("zeta")
        L = dataclasses.replace(base, coefficients=Untouched([1.0]))
        kap = kappa(base, TWO_PI, 1)
        grid = [T] + [float(2 ** j) for j in range(5, 9)]
        sp = twist_sp()
        calls = [lambda: additive_twist(L, TWO_PI, T, sp),
                 lambda: run_twist_scan(L, TWO_PI, grid, sp),
                 lambda: omega_certificate(L, TWO_PI, 1, kap, grid, sp),
                 lambda: H_direct(L, TWO_PI, T, sp),
                 lambda: H_sum_side(L, TWO_PI, T, sp),
                 lambda: H_fe_side(L, T, kap, 1)]
        for call in calls:
            with pytest.raises(ValueError, match="T must be finite and > 0"):
                call()


class TestCertificate:
    def test_zeta_passes_with_margin(self):
        L = get_preset("zeta")
        kap = kappa(L, TWO_PI, 1)
        rep = omega_certificate(L, TWO_PI, 1, kap,
                                [float(2 ** j) for j in range(5, 15)], twist_sp())
        assert rep.all_passed()
        for row in rep.rows:
            assert row.triangle_ok
            assert row.margin >= 1.9

    def test_delta_reported_not_asserted(self):
        # measured margin ~0.97 on the dyadic grid: the lower bound fails
        # narrowly for this shape and the certificate records that honestly
        L = get_preset("delta")
        kap = kappa(L, TWO_PI, 1)
        rep = omega_certificate(L, TWO_PI, 1, kap,
                                [float(2 ** j) for j in (10, 12, 14)], twist_sp())
        for row in rep.rows:
            assert row.triangle_ok
            assert 0.9 <= row.margin <= 1.05
            assert not row.passed

    def test_triangle_inequality_random_samples(self):
        rng = np.random.default_rng(20240817)
        names = ["zeta", "dirichlet-chi4", "zeta-sq", "zeta-shift-pair",
                 "zeta-scaled", "delta"]
        sp = twist_sp()
        for _ in range(100):
            name = names[rng.integers(0, len(names))]
            T = float(rng.integers(4, 4096))
            L = get_preset(name)
            alpha = L.resonance_alpha(1)
            tw = abs(additive_twist(L, alpha, T, sp))
            lo, hi = int(math.floor(T)) + 1, int(math.ceil(4 * T)) - 1
            table = L.coefficients.bulk(hi).values
            lhs = float(np.sum(np.abs(table[lo - 1: hi])))
            assert lhs >= tw * (1.0 - 1e-12)
