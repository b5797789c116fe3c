"""Core-model tests: degree, derived constants, resonance, validation."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from twistlab.coefficients import TableProvider
from twistlab.errors import ResonanceError
from twistlab.model import (DerivedInvariants, FunctionalEquationData,
                            GammaFactorSpec, LSeriesInstance, PoleData,
                            SmoothingParams, degree, resonance_alpha,
                            stirling_constants)
from twistlab.presets import get_preset


class TestDegree:
    def test_zeta_shape(self):
        assert degree(GammaFactorSpec(((0.5, 0.0),))) == 1.0

    def test_weight12_shape(self):
        assert degree(GammaFactorSpec(((1.0, 5.5),))) == 2.0

    def test_shift_pair_shape(self):
        spec = GammaFactorSpec(((0.5, 0.25), (0.5, -0.25)))
        assert degree(spec) == 2.0

    def test_denominator_subtracts(self):
        spec = GammaFactorSpec(((1.0, 0.0),), ((0.25, 0.0),))
        assert degree(spec) == pytest.approx(1.5)

    def test_duplication_fixture(self):
        # single-factor and doubled-factor shapes of the same series agree
        single = get_preset("zeta").fe.gamma
        doubled = get_preset("zeta-doubled").fe.gamma
        assert degree(single) == degree(doubled) == 1.0


class TestStirlingConstants:
    def test_zeta_constants(self):
        inv = stirling_constants(get_preset("zeta").fe.gamma)
        assert inv.A == 0.0
        assert inv.C == pytest.approx(0.5, abs=1e-15)
        # the exact/asymptotic gamma-ratio cross-check pins the phase
        # constant to +pi/4 (the sign-flipped value fails that oracle;
        # see test_gammafn)
        assert inv.B == pytest.approx(math.pi / 4, abs=1e-14)

    def test_complex_shift_gives_A(self):
        inv = stirling_constants(GammaFactorSpec(((0.5, 1j),)))
        assert inv.A == pytest.approx(-2.0, abs=1e-14)

    def test_all_presets_real_constants(self):
        for name in ("zeta", "zeta-doubled", "dirichlet-chi4", "zeta-sq",
                     "zeta-shift-pair", "zeta-scaled", "delta"):
            inv = get_preset(name).invariants()
            assert isinstance(inv, DerivedInvariants)
            assert inv.C > 0.0
            assert isinstance(inv.A, float) and isinstance(inv.B, float)

    def test_invariants_computed_once_per_spec(self):
        # a spec is frozen and hashable: the constants are computed once,
        # with the bits of a fresh computation
        L = get_preset("zeta-shift-pair")
        assert L.invariants() is L.invariants() is stirling_constants(L.fe.gamma)
        assert L.invariants() == stirling_constants.__wrapped__(L.fe.gamma)

    def test_delta_constants(self):
        inv = get_preset("delta").invariants()
        assert inv.d == 2.0
        assert inv.C == pytest.approx(1.0)
        assert inv.B == pytest.approx(-11 * math.pi / 2, abs=1e-12)


class TestResonance:
    def test_zeta_m1(self):
        L = get_preset("zeta")
        assert L.resonance_alpha(1) == pytest.approx(2 * math.pi, rel=1e-14)

    def test_delta_m1(self):
        L = get_preset("delta")
        assert L.resonance_alpha(1) == pytest.approx(2 * math.pi, rel=1e-14)

    def test_simple_numbers(self):
        inv = DerivedInvariants(d=2.0, A=0.0, B=0.0, C=1.0)
        assert resonance_alpha(4, inv, 1.0) == pytest.approx(2.0)

    def test_rejects_degree_zero(self):
        inv = DerivedInvariants(d=0.0, A=0.0, B=0.0, C=1.0)
        with pytest.raises(ResonanceError):
            resonance_alpha(1, inv, 1.0)

    @given(st.integers(1, 50), st.floats(0.2, 4.0), st.floats(0.2, 5.0),
           st.floats(1.0, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, m, C, Q, d):
        inv = DerivedInvariants(d=d, A=0.0, B=0.0, C=C)
        alpha = resonance_alpha(m, inv, Q)
        assert C * Q * Q * alpha ** d == pytest.approx(m, rel=1e-12)


class TestValidation:
    def test_lambda_positive(self):
        with pytest.raises(ValueError):
            GammaFactorSpec(((0.0, 0.0),))
        with pytest.raises(ValueError):
            GammaFactorSpec(((-1.0, 0.0),))

    def test_omega_unit_modulus(self):
        gamma = GammaFactorSpec(((0.5, 0.0),))
        with pytest.raises(ValueError):
            FunctionalEquationData(Q=1.0, omega=1.5, gamma=gamma)

    @pytest.mark.parametrize("Q, omega, field", [
        (math.inf, 1.0, "Q"), (math.nan, 1.0, "Q"), (-math.inf, 1.0, "Q"),
        (1.0, complex(math.nan, 0.0), "omega"), (1.0, complex(0.0, math.nan), "omega"),
        (1.0, complex(math.inf, 0.0), "omega"),
    ], ids=["Q-inf", "Q-nan", "Q-minus-inf", "omega-nan-re", "omega-nan-im",
            "omega-inf"])
    def test_fe_data_must_be_finite(self, Q, omega, field):
        # NaN compares false, so |omega| = nan passed the |omega| = 1 check
        gamma = GammaFactorSpec(((0.5, 0.0),))
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FunctionalEquationData(Q=Q, omega=omega, gamma=gamma)

    @pytest.mark.parametrize("location, leading, field", [
        (complex(math.nan, 0.0), (), "location"),
        (complex(1.0, math.inf), (), "location"),
        (1.0, (complex(math.inf, 0.0),), "leading"),
        (1.0, (complex(0.0, math.nan),), "leading"),
    ], ids=["location-nan", "location-inf", "leading-inf", "leading-nan"])
    def test_pole_data_must_be_finite(self, location, leading, field):
        with pytest.raises(ValueError, match=f"pole {field} .*must be finite"):
            PoleData(location, 1, leading)

    def test_sigma_a_floor(self):
        fe = get_preset("zeta").fe
        with pytest.raises(ValueError):
            LSeriesInstance("bad", TableProvider([1.0]), fe, sigma_a=0.3)

    def test_pole_order(self):
        with pytest.raises(ValueError):
            PoleData(1.0, 0, ())
        with pytest.raises(ValueError):
            PoleData(1.0, 2, (1.0,))  # wrong Laurent length

    def test_laurent_data_is_required(self):
        # a pole without it was once only a proximity check, and its term
        # stayed in the smoothed value with exit 0
        with pytest.raises(TypeError):
            PoleData(1.0, 1)

    # "order": 1.9 was once read as order 1
    @pytest.mark.parametrize("order", [1.9, 1.0, True, "1", None],
                             ids=["1.9", "float-1", "bool", "str", "None"])
    def test_pole_order_is_an_integer(self, order):
        with pytest.raises(ValueError, match="^pole order must be an integer >= 1, got "):
            PoleData(1.0, order, (1.0,))

    def test_smoothing_params(self):
        for p in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="p must be finite and > 1/2"):
                SmoothingParams(p=p)
        with pytest.raises(ValueError):
            SmoothingParams(epsilon=0.1)
        # rho <= 0 puts X = T^{d+rho} below the (t/2pi)^d that K_T needs
        for rho in (math.nan, math.inf, -1.0, 0.0):
            with pytest.raises(ValueError, match="rho"):
                SmoothingParams(rho=rho)
        # refused here, or the truncation rule blames p for an infinite X
        for X in (math.inf, math.nan, -1.0, 0.0):
            with pytest.raises(ValueError, match="X must be finite and > 0"):
                SmoothingParams(X=X)
        sp = SmoothingParams().with_X(100.0)
        assert sp.X == 100.0
