"""Core model: gamma-factor shape data, functional-equation data, and the
derived invariants (degree, phase constants, resonance frequency).

An L-series instance is a Dirichlet series F(s) = sum a_n n^{-s} together
with a completed form Phi(s) = Q^s G(s) F(s) satisfying

    Phi(s) = omega * conj(Phi(1 - conj(s))),      |omega| = 1,

where G(s) = prod Gamma(lambda_j s + mu_j) / prod Gamma(lambda'_j s + mu'_j).
Everything in this module is immutable and pure; instances can be shared
freely between workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .errors import ResonanceError

_TOL = 1e-12


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _as_complex_pairs(seq) -> Tuple[Tuple[float, complex], ...]:
    out = []
    for lam, mu in seq:
        lam = float(lam)
        if not lam > 0.0:
            raise ValueError(f"gamma-factor slope must be positive, got {lam}")
        if not math.isfinite(lam):
            raise ValueError("gamma-factor slope must be finite")
        mu = complex(mu)
        if not _finite(mu):
            raise ValueError("gamma-factor shift must be finite")
        out.append((lam, mu))
    return tuple(out)


@dataclass(frozen=True)
class GammaFactorSpec:
    """Shape data (lambda_j, mu_j; lambda'_j, mu'_j) of the gamma factor G(s).

    `numerator` holds the Gamma factors in the numerator, `denominator`
    those dividing (may be empty).  All slopes are strictly positive.
    """

    numerator: Tuple[Tuple[float, complex], ...]
    denominator: Tuple[Tuple[float, complex], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "numerator", _as_complex_pairs(self.numerator))
        object.__setattr__(self, "denominator", _as_complex_pairs(self.denominator))


@dataclass(frozen=True)
class PoleData:
    """A declared pole of F(s).

    `leading` optionally holds the leading Laurent coefficients
    (c_{-order}, ..., c_{-1}); when present, evaluators can correct the
    smoothed sum for the pole exactly.  Without it the pole is only used
    for proximity checks.
    """

    location: complex
    order: int
    leading: Tuple[complex, ...] = ()

    def __post_init__(self):
        loc = complex(self.location)
        if not _finite(loc):
            raise ValueError(f"pole location must be finite, got {loc}")
        object.__setattr__(self, "location", loc)
        if int(self.order) < 1:
            raise ValueError("pole order must be a positive integer")
        object.__setattr__(self, "order", int(self.order))
        lead = tuple(complex(c) for c in self.leading)
        if not all(_finite(c) for c in lead):
            raise ValueError(f"pole leading Laurent data must be finite, got {lead}")
        if lead and len(lead) != self.order:
            raise ValueError("leading Laurent data must have `order` entries")
        object.__setattr__(self, "leading", lead)


@dataclass(frozen=True)
class FunctionalEquationData:
    """Everything in Phi(s) = Q^s G(s) F(s): root number, Q, G, poles of F."""

    Q: float
    omega: complex
    gamma: GammaFactorSpec
    poles: Tuple[PoleData, ...] = ()

    def __post_init__(self):
        Q = float(self.Q)
        if not (math.isfinite(Q) and Q > 0.0):
            raise ValueError(f"Q must be finite and > 0, got {Q}")
        object.__setattr__(self, "Q", Q)
        om = complex(self.omega)
        if not _finite(om):
            raise ValueError(f"omega must be finite, got {om}")
        if abs(abs(om) - 1.0) > _TOL:
            raise ValueError(f"|omega| must be 1 to {_TOL}, got {abs(om)}")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "poles", tuple(self.poles))


@dataclass(frozen=True)
class DerivedInvariants:
    """Degree and the phase constants of the gamma-ratio asymptotic."""

    d: float
    A: float
    B: float
    C: float


@dataclass(frozen=True)
class SmoothingParams:
    """Parameters of the smoothing weight exp(-(n/X)^p) and its truncation.

    X is optional; operations that know their scale (the transforms and the
    additive twist) fill it in through cutoff(T, d) = T^{d+rho}, standalone
    evaluation picks a default.
    """

    p: float = 2.0
    rho: float = 0.5
    epsilon: float = 1e-12
    X: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 0.5):
            raise ValueError(f"p must be finite and > 1/2, got {self.p}")
        # the default X = T^{d+rho} exceeds the (t/2pi)^d that K_T reaches,
        # (3 alpha T / 2pi)^d, only when T^rho > (3 alpha / 2pi)^d: with
        # alpha = 2pi that is T^rho > 3^d, so T > 9 for zeta and T > 81 in
        # degree 2 at rho = 1/2.  Below that, tail_bound does not see the
        # error (ROADMAP open item 2).
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"rho must be finite and > 0, got {self.rho}")
        if not (0.0 < self.epsilon <= 1e-3):
            raise ValueError("epsilon must lie in (0, 1e-3]")
        if self.X is not None and not (math.isfinite(self.X) and self.X > 0.0):
            raise ValueError(f"X must be finite and > 0 when given, got {self.X}")

    def with_X(self, X: float) -> "SmoothingParams":
        return replace(self, X=float(X))

    def cutoff(self, T: float, d: float) -> float:
        """X if set, else the scale-aware default T^{d + rho}."""
        if self.X is not None:
            return self.X
        return float(T) ** (d + self.rho)


@dataclass(frozen=True)
class LSeriesInstance:
    """A named Dirichlet series with its functional-equation data.

    `coefficients` is any CoefficientProvider (see twistlab.coefficients);
    `sigma_a` is the declared abscissa of absolute convergence.
    """

    name: str
    coefficients: object
    fe: FunctionalEquationData
    sigma_a: float

    def __post_init__(self):
        if not self.sigma_a >= 0.5:
            raise ValueError("sigma_a must be >= 1/2")

    def invariants(self) -> DerivedInvariants:
        return stirling_constants(self.fe.gamma)

    def resonance_alpha(self, m: int) -> float:
        return resonance_alpha(m, self.invariants(), self.fe.Q)


def degree(spec: GammaFactorSpec) -> float:
    """Degree 2*sum(lambda_j) - 2*sum(lambda'_j) of a gamma-factor spec."""
    return 2.0 * (sum(l for l, _ in spec.numerator)
                  - sum(l for l, _ in spec.denominator))


def _assert_real(value: complex, what: str) -> float:
    if abs(value.imag) > _TOL * max(1.0, abs(value)):
        raise ArithmeticError(f"{what} came out non-real: {value}")
    return value.real


def stirling_constants(spec: GammaFactorSpec) -> DerivedInvariants:
    """Constants (d, A, B, C) of the gamma-ratio asymptotic

        Gt(1-x-it)/G(x+it) ~ (C t^d)^{(1/2-x)} e^{-itd log(t/e)} t^{iA} e^{iB} C^{-it}.

    With mu = sum mu_j and mu' = sum mu'_j:

        A = -i((conj(mu)-mu) - (conj(mu')-mu'))
        C = prod lambda_j^{2 lambda_j} / prod lambda'_j^{2 lambda'_j}
        B = -i [ sum (conj(mu_j)-mu_j) log lambda_j
                 - sum (conj(mu'_j)-mu'_j) log lambda'_j ]
            - (pi/2) [ d/2 + (mu+conj(mu)) - (mu'+conj(mu')) - (r - r') ]

    The B constant is the one validated against exact gamma-factor ratios
    (the exact/asymptotic comparison of this package's gamma module); the
    commonly printed variant with the opposite sign pattern fails that
    cross-check.
    """
    d = degree(spec)
    mu = sum((m for _, m in spec.numerator), 0j)
    mup = sum((m for _, m in spec.denominator), 0j)
    r, rp = len(spec.numerator), len(spec.denominator)

    A = _assert_real(-1j * ((mu.conjugate() - mu) - (mup.conjugate() - mup)), "A")

    C = 1.0
    for lam, _ in spec.numerator:
        C *= lam ** (2.0 * lam)
    for lam, _ in spec.denominator:
        C *= lam ** (-2.0 * lam)
    if not C > 0.0:
        raise ArithmeticError("C must be positive")

    log_part = sum((m.conjugate() - m) * math.log(lam) for lam, m in spec.numerator) \
        - sum((m.conjugate() - m) * math.log(lam) for lam, m in spec.denominator)
    real_part = d / 2.0 + (mu + mu.conjugate()) - (mup + mup.conjugate()) - (r - rp)
    B = _assert_real(-1j * log_part - (math.pi / 2.0) * real_part, "B")

    return DerivedInvariants(d=d, A=A, B=B, C=C)


def resonance_alpha(m: int, inv: DerivedInvariants, Q: float) -> float:
    """Frequency alpha solving the resonance condition m = C Q^2 alpha^d."""
    if inv.d == 0:
        raise ResonanceError("resonance frequency undefined for degree 0")
    if m < 1:
        raise ValueError("m must be a positive integer")
    return (m / (inv.C * Q * Q)) ** (1.0 / inv.d)
