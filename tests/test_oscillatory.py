"""Quadrature and stationary-phase tests.

The Fresnel value int_0^20 e^{it^2} dt was frozen from a high-precision
quadrature oracle; the stationary-phase closed form is cross-checked against
the package quadrature itself, which is the oracle that fixed its sqrt(2 pi)
normalization and its validity window.
"""
import math
import tracemalloc

import numpy as np
import pytest

from twistlab import oscillatory
from twistlab.errors import QuadratureError
from twistlab.oscillatory import (_BLOCK_PANELS, PhaseFamily, I_n_quadrature,
                                  I_n_stationary_phase, _panel_nodes,
                                  first_derivative_bound,
                                  in_stationary_range, integrate_oscillatory)

FRESNEL_0_20 = 0.605400599504312649 + 0.639816006175832889j
TWO_PI = 2 * math.pi


class TestIntegrateOscillatory:
    def test_zero_phase_exact(self):
        r = integrate_oscillatory(np.zeros_like, (0.0, 2.0), 1e-12, np.zeros_like)
        assert r.value == pytest.approx(2.0, abs=1e-13)
        assert r.panels >= 8

    def test_linear_phase_closed_form(self):
        r = integrate_oscillatory(lambda t: t, (0.0, math.pi), 1e-10, np.ones_like)
        assert abs(r.value - 2j) < 1e-10

    def test_fresnel_frozen_value(self):
        r = integrate_oscillatory(lambda t: t * t, (0.0, 20.0), 1e-8,
                                  lambda t: 2 * t)
        assert abs(r.value - FRESNEL_0_20) < 1e-7
        # proximity to the infinite-range limit sqrt(pi/8)(1+i); the true
        # distance is 0.0250, the tail of the Fresnel integral at 20
        limit = math.sqrt(math.pi / 8) * (1 + 1j)
        assert abs(r.value - limit) < 0.03

    def test_est_error_honest(self):
        r = integrate_oscillatory(lambda t: t, (0.0, 10.0), 1e-9, np.ones_like)
        assert r.est_error < 1e-9

    def test_degenerate_interval(self):
        r = integrate_oscillatory(lambda t: t, (3.0, 3.0), 1e-9, np.ones_like)
        assert r.value == 0.0

    def test_budget_exhaustion_raises(self, monkeypatch):
        from twistlab import oscillatory as mod
        monkeypatch.setattr(mod, "PANEL_BUDGET", 8)
        with pytest.raises(QuadratureError):
            integrate_oscillatory(lambda t: t, (0.0, math.pi), 1e-300, np.ones_like)

    def test_amplitude_faster_than_phase(self):
        # the panel rule reads the phase rate only; an amplitude e^{i lam t}
        # with lam = 8 max|dphase| (as F(1/2 + it) in H_direct) is left to
        # the two-level comparison, which must still reach the closed form
        omega, lam, (a, b), tol = 1.0, 8.0, (10.0, 210.0), 1e-8
        r = integrate_oscillatory(lambda t: omega * t, (a, b), tol,
                                  lambda t: np.full_like(t, omega),
                                  amplitude=lambda t: np.exp(1j * lam * t))
        k = omega + lam
        exact = (np.exp(1j * k * b) - np.exp(1j * k * a)) / (1j * k)
        # the one-period rule, not MIN_PANELS, sets the first level (20
        # panels), and the comparison refines well past the rule's 40
        n_rule = math.ceil((b - a) * 1.25 * omega / TWO_PI)
        assert n_rule > 2 * 8
        assert r.panels > 4 * n_rule
        assert abs(r.value - exact) <= tol

    def test_interval_additivity(self):
        pf = PhaseFamily(alpha=TWO_PI, n=15000, d=1.0)
        a, b = pf.interval(6000.0)
        mid = 0.5 * (a + b)
        tol = 1e-5
        whole = integrate_oscillatory(pf.f, (a, b), tol, dphase=pf.fprime).value
        left = integrate_oscillatory(pf.f, (a, mid), tol, dphase=pf.fprime).value
        right = integrate_oscillatory(pf.f, (mid, b), tol, dphase=pf.fprime).value
        assert abs(whole - (left + right)) <= 2 * tol


def whole_level(phase, a, b, n, amplitude=None):
    """The terms of one level of n panels on [a, b], built in one piece."""
    nodes, weights = _panel_nodes(np.linspace(a, b, n + 1))
    theta = phase(nodes)
    vals = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=vals.real)
    np.sin(theta, out=vals.imag)
    if amplitude is not None:
        vals *= amplitude(nodes)
    vals *= weights
    return vals


class TestStreamedLevels:
    # an AC-3 integral below the window, d = 1: its last level has 22,348
    # panels, 22 blocks
    PF = PhaseFamily(alpha=TWO_PI, n=420, d=1.0)
    T = 5000.0

    def test_multi_block_matches_the_whole_level(self):
        a, b = self.PF.interval(self.T)
        r = integrate_oscillatory(self.PF.f, (a, b), 1e-3, dphase=self.PF.fprime)
        blocks = math.ceil(r.panels / _BLOCK_PANELS)
        assert blocks == 22
        vals = whole_level(self.PF.f, a, b, r.panels)
        want = complex(np.sum(vals))
        exact = complex(math.fsum(vals.real), math.fsum(vals.imag))
        # a priori rounding bound of each sum of these terms: the depth of a
        # block's pairwise tree (over real and imaginary doubles) plus one
        # addition per block, times the unit roundoff and sum |x_i|; |I_n|
        # is about 0.57 here against sum |x_i| = b - a = 31,416
        depth = math.ceil(math.log2(2 * 10 * _BLOCK_PANELS)) + blocks
        tol = 2 * depth * 2.0 ** -53 * float(np.sum(np.abs(vals)))
        assert abs(r.value - want) <= tol
        assert abs(r.value - exact) <= tol
        assert r.value != want  # the orders differ, and so do the last bits

    @pytest.mark.parametrize("n, T, amplitude", [
        (1, 20.0, None),
        (77, 30.0, None),
        (1, 20.0, lambda t: np.exp(0.5j * t) / t),
    ], ids=["n1", "n77", "amplitude"])
    def test_one_block_is_the_whole_level(self, n, T, amplitude):
        pf = PhaseFamily(alpha=TWO_PI, n=n, d=1.0)
        a, b = pf.interval(T)
        r = integrate_oscillatory(pf.f, (a, b), 1e-10, dphase=pf.fprime,
                                  amplitude=amplitude)
        assert r.panels <= _BLOCK_PANELS
        want = complex(np.sum(whole_level(pf.f, a, b, r.panels, amplitude)))
        assert r.value == want

    def test_amplitude_sees_blocks_in_ascending_order(self):
        calls = []

        def amplitude(t):
            calls.append(t.copy())
            return np.ones_like(t)

        a, b = self.PF.interval(self.T)
        r = integrate_oscillatory(self.PF.f, (a, b), 1e-3,
                                  dphase=self.PF.fprime, amplitude=amplitude)
        # split the calls into levels: a level starts again at a
        levels = []
        for t in calls:
            assert 0 < t.size <= 10 * _BLOCK_PANELS
            if levels and t[0] > levels[-1][-1][-1]:
                levels[-1].append(t)
            else:
                levels.append([t])
        assert [sum(t.size for t in level) for level in levels] == [
            5 * r.panels, 10 * r.panels]
        for level in levels:
            nodes = np.concatenate(level)
            n = nodes.size // 10
            assert [t.size for t in level[:-1]] == [10 * _BLOCK_PANELS] * (len(level) - 1)
            assert np.array_equal(nodes, _panel_nodes(np.linspace(a, b, n + 1))[0])

    def test_memory_is_one_block(self):
        I_n_quadrature(self.PF, self.T, 1e-3)  # warm up numpy's caches
        tracemalloc.start()
        try:
            I_n_quadrature(self.PF, self.T, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole level of 22,348 panels held 9.8 MB of nodes and values
        assert peak < 2 * 2 ** 20

    def test_budget_checked_before_any_node(self, monkeypatch):
        # K_T at T = 1e8 needs about 3.9e8 one-period panels, far past
        # PANEL_BUDGET: no level may be built
        def refuse(edges):
            raise AssertionError(f"built a level of {edges.size - 1} panels")

        monkeypatch.setattr(oscillatory, "_panel_nodes", refuse)
        with pytest.raises(QuadratureError, match="one-period rule"):
            I_n_quadrature(PhaseFamily(1.0, 1, 1.0), 1e8, 1e-4)


class TestPhaseFamily:
    def test_derivative_consistency(self):
        pf = PhaseFamily(alpha=TWO_PI, n=500, d=2.0)
        t = np.array([800.0, 1200.0, 2500.0])
        h = 1e-4
        fp_num = (pf.f(t + h) - pf.f(t - h)) / (2 * h)
        assert np.allclose(fp_num, pf.fprime(t), rtol=1e-6)

    def test_stationary_point_examples(self):
        # f' vanishes at c = alpha n^{1/d}
        assert PhaseFamily(TWO_PI, 10 ** 4, 2.0).x_n == pytest.approx(100.0)
        for pf in (PhaseFamily(TWO_PI, 1, 1.0), PhaseFamily(TWO_PI, 10 ** 4, 2.0),
                   PhaseFamily(TWO_PI, 77, 1.0)):
            assert abs(pf.fprime(pf.alpha * pf.x_n)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseFamily(alpha=0.0, n=1, d=1.0)
        with pytest.raises(ValueError):
            PhaseFamily(alpha=1.0, n=0, d=1.0)
        with pytest.raises(ValueError):
            PhaseFamily(alpha=1.0, n=1, d=0.5)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_alpha_refused(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            PhaseFamily(alpha, 1, 1.0)


class TestStationaryPhase:
    def test_d1_in_window(self):
        pf = PhaseFamily(alpha=TWO_PI, n=15000, d=1.0)
        quad = I_n_quadrature(pf, 6000.0, 1e-4)
        sp = I_n_stationary_phase(pf, 6000.0)
        # closed form: sqrt(2 pi alpha) sqrt(n) e^{-i alpha n}, phase 0 here
        assert abs(sp - TWO_PI * math.sqrt(15000)) < 1e-7
        assert abs(quad - sp) / abs(sp) < 0.005

    def test_d2_in_window(self):
        pf = PhaseFamily(alpha=TWO_PI, n=62500, d=2.0)
        quad = I_n_quadrature(pf, 100.0, 1e-6)
        sp = I_n_stationary_phase(pf, 100.0)
        assert abs(sp - math.sqrt(math.pi * TWO_PI) * 62500 ** 0.25) < 1e-9
        assert abs(quad - sp) / abs(sp) < 0.05

    def test_direct_substitution(self):
        pf = PhaseFamily(alpha=1.0, n=4, d=1.0)
        want = math.sqrt(2 * math.pi) * 2.0 * np.exp(-4j)
        assert abs(I_n_stationary_phase(pf, 1.6) - want) < 1e-12

    def test_rejected_outside_window(self):
        # n = 1e4 with T = 6000 has its stationary point below 2 alpha T
        pf = PhaseFamily(alpha=TWO_PI, n=10 ** 4, d=1.0)
        assert not in_stationary_range(pf, 6000.0)
        with pytest.raises(ValueError):
            I_n_stationary_phase(pf, 6000.0)
        # and the integral is O(1) there, nowhere near the would-be main term
        assert abs(I_n_quadrature(pf, 6000.0, 1e-6)) < 10.0

    def test_defect_stable_under_T_doubling(self):
        # the stationary-phase defect is O(m/|f''(c)|^2) = O(1): no growth
        # trend when T doubles along mid-window n = 2.5 T
        defects, mains = [], []
        for T in (1500.0, 3000.0, 6000.0, 12000.0):
            pf = PhaseFamily(alpha=TWO_PI, n=int(2.5 * T), d=1.0)
            sp_val = I_n_stationary_phase(pf, T)
            defects.append(abs(I_n_quadrature(pf, T, 1e-4) - sp_val))
            mains.append(abs(sp_val))
        assert max(defects) < 12.0  # measured 9.9; fluctuates, never grows
        assert defects[-1] / mains[-1] < defects[0] / mains[0]

    def test_growth_versus_bounded_defect(self):
        # |quad - sp| stays bounded while the main term grows like n^{1/(2d)};
        # near the window edges the bound is endpoint-driven (~1/|f'(edge)|,
        # measured <= 15 on this sweep), mid-window it drops to O(1)
        T = 6000.0
        defects = {}
        for n in (13000, 14000, 15000, 16000, 17000):
            pf = PhaseFamily(alpha=TWO_PI, n=n, d=1.0)
            quad = I_n_quadrature(pf, T, 1e-4)
            sp = I_n_stationary_phase(pf, T)
            defects[n] = abs(quad - sp)
            assert defects[n] / abs(sp) < 0.05
        assert max(defects.values()) < 16.0
        assert defects[15000] < 2.0


class TestScaleGuard:
    # K_T = [2 alpha T, 3 alpha T] is nondegenerate for every T > 0, and
    # every reader of T shares model.require_scale

    def test_small_T_is_the_rotated_quadrature(self):
        pf = PhaseFamily(alpha=TWO_PI, n=1, d=1.0)
        raw = integrate_oscillatory(pf.f, pf.interval(1.0), 1e-6, dphase=pf.fprime)
        got = I_n_quadrature(pf, 1.0, 1e-6)
        assert got == pytest.approx(raw.value * np.exp(-0.25j * math.pi),
                                    rel=1e-15, abs=0.0)
        assert I_n_quadrature(pf, 0.5, 1e-6) != 0.0

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        lambda pf, T: I_n_quadrature(pf, T, 1e-4),
        I_n_stationary_phase, first_derivative_bound, in_stationary_range,
    ], ids=["quadrature", "stationary", "first-derivative", "in-range"])
    def test_bad_T_refused(self, call, T):
        pf = PhaseFamily(alpha=TWO_PI, n=3, d=1.0)
        with pytest.raises(ValueError, match="T must be finite and > 0"):
            call(pf, T)


class TestFirstDerivativeBound:
    def test_small_n_value(self):
        pf = PhaseFamily(alpha=TWO_PI, n=3000, d=1.0)
        assert first_derivative_bound(pf, 6000.0) == pytest.approx(1 / math.log(2))

    def test_large_n_value(self):
        pf = PhaseFamily(alpha=TWO_PI, n=4 * 100 ** 2 * 16, d=2.0)
        assert first_derivative_bound(pf, 100.0) == pytest.approx(
            1 / (2 * math.log(4 / 3)))

    def test_rejects_middle(self):
        pf = PhaseFamily(alpha=TWO_PI, n=15000, d=1.0)
        with pytest.raises(ValueError):
            first_derivative_bound(pf, 6000.0)

    def test_order_bound_against_quadrature(self):
        T = 6000.0
        rng = np.random.default_rng(7)
        lows = rng.integers(100, 6000, size=8)
        highs = rng.integers(24000, 40000, size=8)
        for n in np.concatenate([lows, highs]):
            pf = PhaseFamily(alpha=TWO_PI, n=int(n), d=1.0)
            q = abs(I_n_quadrature(pf, T, 1e-5))
            assert q <= 10.0 * first_derivative_bound(pf, T)
