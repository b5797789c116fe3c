"""Transform-route tests: J integrals, kappa, route consistency."""
import cmath
import dataclasses
import math

import numpy as np
import pytest

from twistlab.errors import BudgetError, PoleError, ResonanceError
from twistlab.model import LSeriesInstance, PoleData, SmoothingParams
from twistlab.coefficients import PeriodicProvider, TableProvider
from twistlab import evaluate, transforms
from twistlab.oscillatory import integrate_oscillatory
from twistlab.presets import get_preset, instance_from_config
from twistlab.transforms import (H_direct, H_fe_side, H_sum_side, _jm_factor,
                                 kappa, run_transform)

TWO_PI = 2 * math.pi


def synthetic_instance(A: float) -> LSeriesInstance:
    """Ones-coefficient instance with lambda = 1/2, Im(mu) = -A/2, so the
    phase constant is A; C Q^2 = 1 makes alpha = 1 resonant for m = 1."""
    return instance_from_config({
        "name": f"synthetic-A{A}",
        "lambda": [0.5],
        "mu": [[0.0, -A / 2.0]],
        "lambda_prime": [],
        "mu_prime": [],
        "Q": math.sqrt(2.0),
        "omega": [1.0, 0.0],
        "sigma_a": 1.0,
        "coefficients": {"kind": "ones"},
    })


def J_n_quadrature(L: LSeriesInstance, alpha: float, T: float, n: int,
                   tol=None) -> complex:
    """int_{K_T} (n^{-1} C Q^2 alpha^d)^{-it} t^{iA} dt by panel quadrature,
    independent of kappa's closed form."""
    inv = L.invariants()
    log_base = math.log(inv.C * L.fe.Q ** 2 * alpha ** inv.d / n)
    A = inv.A
    if tol is None:
        tol = max(1e-10, 1e-8 * alpha * T)

    def phase(t):
        return -t * log_base + A * np.log(t)

    def dphase(t):
        return -log_base + A / t

    return integrate_oscillatory(phase, (2.0 * alpha * T, 3.0 * alpha * T), tol,
                                 dphase=dphase).value


def J_m_closed_form(L: LSeriesInstance, alpha: float, T: float) -> complex:
    """The resonant case n = m: _jm_factor(A) (alpha T)^{1+iA}."""
    A = L.invariants().A
    return _jm_factor(A) * (alpha * T) ** (1.0 + 1j * A)


class TestJIntegrals:
    def test_resonant_flat_phase_is_alpha_T(self):
        L = get_preset("zeta")  # A = 0, m = 1 at alpha = 2 pi
        got = J_n_quadrature(L, TWO_PI, 100.0, 1)
        assert abs(got - TWO_PI * 100.0) < 1e-6
        assert abs(J_m_closed_form(L, TWO_PI, 100.0) - TWO_PI * 100.0) < 1e-9

    def test_nonresonant_log_bound(self):
        L = get_preset("zeta")
        got = J_n_quadrature(L, TWO_PI, 100.0, 2)
        assert abs(got) <= 2.0 / math.log(2) + 1e-6

    def test_closed_form_complex_exponent(self):
        L = synthetic_instance(1.0)
        assert L.invariants().A == pytest.approx(1.0, abs=1e-14)
        want = (3.0 ** (1 + 1j) - 2.0 ** (1 + 1j)) / (1 + 1j)
        assert abs(J_m_closed_form(L, 1.0, 1.0) - want) < 1e-14

    @pytest.mark.parametrize("A", [0.0, 1.0, -0.5])
    def test_quadrature_matches_closed_form(self, A):
        L = synthetic_instance(A)
        for T in (1.0, 7.0):
            quad = J_n_quadrature(L, 1.0, T, 1, tol=1e-11)
            closed = J_m_closed_form(L, 1.0, T)
            assert abs(quad - closed) / abs(closed) < 1e-6


class TestKappa:
    def test_calibrated_convention_value(self):
        k = kappa(get_preset("zeta"), TWO_PI, 1)
        # e^{i(B - pi/4)} = 1 here, so kappa = sqrt(alpha) = sqrt(2 pi)
        assert k == pytest.approx(math.sqrt(TWO_PI))
        assert abs(k.imag) < 1e-14

    def test_trivial_jm_factor_at_A_zero(self):
        e = 1.0 + 0j
        assert (3.0 ** e - 2.0 ** e) / e == pytest.approx(1.0)

    def test_resonance_mismatch_rejected(self):
        with pytest.raises(ResonanceError):
            kappa(get_preset("zeta"), 1.0, 1)

    def test_nan_alpha_is_no_resonance(self):
        # abs(nan - m) > tol is False, so nan once passed the check
        with pytest.raises(ResonanceError):
            kappa(get_preset("zeta"), math.nan, 1)

    def test_unknown_convention_rejected(self):
        for convention in ("folklore", "paper-printed"):
            with pytest.raises(ValueError, match="one convention"):
                kappa(get_preset("zeta"), TWO_PI, 1, convention)


class TestFeSide:
    def test_linear_growth(self):
        L = get_preset("zeta")
        k = kappa(L, TWO_PI, 1)
        v1 = H_fe_side(L, 100.0, k, 1)
        v2 = H_fe_side(L, 700.0, k, 1)
        assert abs(v2) / 700.0 == pytest.approx(abs(v1) / 100.0, rel=1e-14)

    def test_zero_T(self):
        L = get_preset("zeta")
        k = kappa(L, TWO_PI, 1)
        with pytest.raises(ValueError, match="T must be finite and > 0"):
            H_fe_side(L, 0.0, k, 1)

    def test_conjugates_complex_coefficient(self):
        # every preset has real a_m; a unimodular a_1 exposes the conjugation
        zeta = get_preset("zeta")
        a_1 = cmath.exp(1j * math.pi / 3)
        L = LSeriesInstance("x", TableProvider([a_1]), zeta.fe, zeta.sigma_a)
        k = kappa(L, TWO_PI, 1)
        T = 20.0
        got = H_fe_side(L, T, k, 1)
        power = T ** (1.0 + 1j * L.invariants().A)
        assert got == k * a_1.conjugate() * power
        assert abs(got - k * a_1 * power) > 0.5 * abs(got)


class TestSumSide:
    def test_zeta_counts_window(self):
        # all phases are 1 for the ones series at alpha = 2 pi: the sum is
        # sqrt(2 pi) times the weighted count of (2T, 3T)
        L = get_preset("zeta")
        T, X = 1000.0, 1000.0 ** 1.5
        got = H_sum_side(L, TWO_PI, T, SmoothingParams())
        n = np.arange(2001, 3000, dtype=float)
        want = math.sqrt(TWO_PI) * np.sum(np.exp(-((n / X) ** 2)))
        assert abs(got - want) < 1e-9 * abs(want)

    def test_empty_window(self):
        # (2T, 3T) = (0.6, 0.9) holds no integer
        L = get_preset("zeta")
        assert H_sum_side(L, TWO_PI, 0.3, SmoothingParams(X=100.0)) == 0.0

    def test_window_lost_to_underflow(self):
        # (2T)^2 and (3T)^2 both round to 0: the window (0, 0) is empty,
        # not an inverted range
        L = get_preset("zeta-sq")
        assert H_sum_side(L, TWO_PI, 1e-200, SmoothingParams()) == 0.0


class TestRoutes:
    def test_three_route_consistency_T50(self):
        rep = run_transform(get_preset("zeta"), 1, 50.0, SmoothingParams())
        assert rep.deviations["direct-fe"] < 0.03
        assert rep.deviations["direct-sum"] == pytest.approx(0.130, abs=0.02)
        assert rep.deviations["sum-fe"] == pytest.approx(0.136, abs=0.02)
        # the calibrated constant is visible in the direct route already
        assert abs(rep.direct) / 50.0 == pytest.approx(math.sqrt(TWO_PI), rel=0.03)
        assert abs(cmath.phase(rep.direct)) < 0.05

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="unknown route 'bogus'"):
            run_transform(get_preset("zeta"), 1, 20.0, SmoothingParams(),
                          routes=("sum", "bogus"))

    def test_route_subset_in_route_order(self):
        rep = run_transform(get_preset("zeta"), 1, 20.0, SmoothingParams(),
                            routes=("fe", "sum"))
        assert rep.direct is None and rep.sum_side is not None
        assert list(rep.deviations) == ["sum-fe"]

    def test_degenerate_small_T(self):
        v = H_direct(get_preset("zeta"), TWO_PI, 2.0, SmoothingParams())
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_scaling_contract(self):
        base = get_preset("zeta")
        scaled = LSeriesInstance("zeta-x7", PeriodicProvider([7.0]),
                                 base.fe, base.sigma_a)
        sp = SmoothingParams()
        T = 20.0
        assert H_sum_side(scaled, TWO_PI, T, sp) == pytest.approx(
            7.0 * H_sum_side(base, TWO_PI, T, sp), rel=1e-12)
        k = kappa(base, TWO_PI, 1)
        ks = kappa(scaled, TWO_PI, 1)
        assert ks == k  # scale lives in a_m, not kappa
        assert H_fe_side(scaled, T, ks, 1) == pytest.approx(
            7.0 * H_fe_side(base, T, k, 1), rel=1e-12)
        hd_base = H_direct(base, TWO_PI, T, sp)
        hd_scaled = H_direct(scaled, TWO_PI, T, sp)
        assert abs(hd_scaled - 7.0 * hd_base) < 1e-3 * abs(hd_scaled)

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("TWISTLAB_BUDGET", "10")
        L = get_preset("zeta")
        with pytest.raises(BudgetError):
            H_direct(L, TWO_PI, 5.0, SmoothingParams())
        monkeypatch.setenv("TWISTLAB_BUDGET", "inf")
        v = H_direct(L, TWO_PI, 5.0, SmoothingParams())
        assert np.isfinite(abs(v))

    @pytest.mark.parametrize("name, T, budget", [("zeta", 5.0, "10"),
                                                 ("delta", 200.0, "1e9")])
    def test_budget_refusal_builds_no_table(self, name, T, budget, monkeypatch):
        # the plan's phase work is compared with the budget before any
        # coefficient table exists; delta at T = 200 once built 1.1 GB of
        # tables in 10.9 s before it was refused
        L = get_preset(name)

        def bulk(self, N):
            raise AssertionError("table built")

        monkeypatch.setattr(type(L.coefficients), "bulk", bulk)
        monkeypatch.setenv("TWISTLAB_BUDGET", budget)
        with pytest.raises(BudgetError, match=r"^H_direct estimated cost .* exceeds "
                           r"budget .*; raise TWISTLAB_BUDGET \(inf lifts it\)$"):
            H_direct(L, TWO_PI, T, SmoothingParams())

    @pytest.mark.parametrize("budget", ["1e9", "10"])
    def test_order_above_2_is_refused_by_the_plan(self, budget, monkeypatch):
        # refused by plan_line before any table, and before the segment-pole
        # and budget checks: the pole at 1/2 + 130i is on K_T
        base = get_preset("zeta")
        fe = dataclasses.replace(base.fe, poles=(PoleData(1.0, 3, (1.0, 0.0, 0.0)),
                                                 PoleData(0.5 + 130j, 1, (1.0,))))
        L = dataclasses.replace(base, fe=fe)

        def bulk(self, N):
            raise AssertionError("table built")

        monkeypatch.setattr(type(L.coefficients), "bulk", bulk)
        monkeypatch.setenv("TWISTLAB_BUDGET", budget)
        with pytest.raises(ValueError, match="poles of order 1 and 2 only"):
            H_direct(L, TWO_PI, 10.0, SmoothingParams())

    def test_pole_on_the_segment(self):
        # K_T = [2 alpha T, 3 alpha T] = [125.7, 188.5] holds 130
        base = get_preset("zeta")
        fe = dataclasses.replace(base.fe, poles=base.fe.poles
                                 + (PoleData(0.5 + 130j, 1, (1.0,)),))
        L = dataclasses.replace(base, name="zeta-pole-130", fe=fe)
        with pytest.raises(PoleError, match="^pole of 'zeta-pole-130' on the "
                                            "integration segment$"):
            H_direct(L, TWO_PI, 10.0, SmoothingParams())

    @pytest.mark.parametrize("value", ["abc", "nan", "0", "-1"])
    def test_budget_must_be_a_positive_number(self, value, monkeypatch):
        monkeypatch.setenv("TWISTLAB_BUDGET", value)
        with pytest.raises(ValueError, match="TWISTLAB_BUDGET"):
            H_direct(get_preset("zeta"), TWO_PI, 5.0, SmoothingParams())

    @pytest.mark.parametrize("name, T", [("zeta", 50.0), ("delta", 10.0)])
    def test_budget_estimate_counts_phase_exponentials(self, name, T, monkeypatch):
        lines = []

        class Recording(transforms.SmoothedLineEvaluator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                lines.append(self)

        monkeypatch.setattr(transforms, "SmoothedLineEvaluator", Recording)
        L = get_preset(name)
        alpha = L.resonance_alpha(1)
        H_direct(L, alpha, T, SmoothingParams())
        (line,) = lines
        estimate = line.plan.phase_work()
        assert 0.5 <= estimate / line.phase_evals <= 2.0

    @pytest.mark.parametrize("name, T", [("zeta", 50.0), ("delta", 10.0)])
    def test_each_centre_forms_one_phase_row(self, name, T, monkeypatch):
        # every quadrature level snaps to the multiples of the spacing, and
        # a centre's phase row is formed on the first level only
        lines, nodes = [], []

        class Recording(transforms.SmoothedLineEvaluator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                lines.append(self)

            def values(self, t):
                nodes.append(np.asarray(t))
                return super().values(t)

        monkeypatch.setattr(transforms, "SmoothedLineEvaluator", Recording)
        L = get_preset(name)
        H_direct(L, L.resonance_alpha(1), T, SmoothingParams())
        (line,) = lines
        assert len(nodes) >= 2
        # width per new centre, per anchor row (one per _BLOCK consecutive
        # centres, in each call that forms a centre among them) and per
        # offset-block row
        known, rows = np.empty(0), evaluate._BLOCK
        for t in nodes:
            index = np.setdiff1d(np.rint(t / line.spacing), known)
            rows += index.size + np.unique(np.floor(index / evaluate._BLOCK)).size
            known = np.union1d(known, index)
        assert line.phase_evals == line.width * rows

    def test_degree_below_one_rejected(self):
        cfg = {
            "name": "deg-half", "lambda": [0.25], "mu": [[0.0, 0.0]],
            "lambda_prime": [], "mu_prime": [], "Q": 1.0, "omega": [1.0, 0.0],
            "sigma_a": 1.0, "coefficients": {"kind": "ones"},
        }
        L = instance_from_config(cfg)
        for route in (H_direct, H_sum_side):
            with pytest.raises(ValueError, match="degree"):
                route(L, 1.0, 10.0, SmoothingParams(X=100.0))

    @pytest.mark.parametrize("alpha", [math.nan, -3.0, 0.0, math.inf])
    def test_bad_alpha_rejected_before_any_table(self, alpha):
        # H_sum_side once returned nan+nanj for nan and inf and a number for
        # alpha = -3, and H_direct 0j for inf
        class Untouched(PeriodicProvider):
            def coefficient(self, n):
                raise AssertionError("coefficient read")

            def bulk(self, N):
                raise AssertionError("table built")

        L = dataclasses.replace(get_preset("zeta"), coefficients=Untouched([1.0]))
        for route in (H_direct, H_sum_side):
            with pytest.raises(ValueError, match="alpha"):
                route(L, alpha, 20.0, SmoothingParams())
