"""The resonance transform

    H(alpha, T) = alpha^{-1/2} int_{2 alpha T}^{3 alpha T}
                  F(1/2 + it) e^{i d t log(t/(e alpha)) - i pi/4} dt,

computed by three independent routes: direct quadrature against the smoothed
evaluator, the stationary-phase coefficient sum, and the functional-equation
closed form kappa a_m T^{1+iA}.

Constant conventions
--------------------
Several closed-form constants in the standard derivation of this transform
are inconsistent as commonly printed; this module fixes them by numerical
cross-validation of the three routes (each route is computed independently,
so an error in any convention shows up as a route deviation that fails to
shrink as T grows):

* The resonance-kernel integral I_n is the bare integral (no 1/(2 pi i)
  prefactor), and its stationary-phase main term carries the full constant
  sqrt(2 pi alpha / d) n^{1/(2d)} with phase e^{-i d alpha n^{1/d}}
  (minus sign in the exponential).
* The stationary window for K_T = [2 alpha T, 3 alpha T] is
  (2T)^d < n < (3T)^d, so that is the coefficient-sum route's window.
* The resonant linear-phase integral J_n uses the base n^{-1} C Q^2 alpha^d,
  the same combination that defines the resonant index m = C Q^2 alpha^d.
* kappa has one convention, assembled from first principles (functional
  equation + exact J_m):

      kappa = omega e^{i(B - pi/4)} m^{-1/2} alpha^{1/2+iA}
              (3^{1+iA} - 2^{1+iA}) / (1 + iA).

  For the ones-coefficient series at alpha = 2 pi its modulus
  sqrt(2 pi) = 2.5066 matches the measured |H_direct|/T.  The commonly
  printed closed form omega e^{iB} sqrt(C) Q alpha^{(1-d)/2+iA} (...) has
  modulus 0.3989 there, which that measurement rejects; the --ledger text
  quotes it as the rejected form.
"""
from __future__ import annotations

import cmath
import itertools
import math
import os
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import BudgetError, PoleError, ResonanceError
from .evaluate import _BLOCK, SmoothedLineEvaluator
from .model import LSeriesInstance, SmoothingParams
from .oscillatory import PhaseFamily, integrate_oscillatory
from .summation import compensated_sum

#: the transform routes, in the order reports and outputs list them
ROUTES = ("direct", "sum", "fe")


@dataclass(frozen=True)
class TransformReport:
    T: float
    direct: Optional[complex]
    sum_side: Optional[complex]
    fe_side: Optional[complex]
    deviations: Dict[str, float]


def _budget() -> float:
    text = os.environ.get("TWISTLAB_BUDGET", "1e9")
    try:
        budget = float(text)
    except ValueError:
        budget = math.nan
    if not budget > 0.0:
        raise ValueError(f"TWISTLAB_BUDGET must be a number > 0, got {text!r}")
    return budget


def _require_transform_degree(L: LSeriesInstance) -> float:
    d = L.invariants().d
    if d < 1.0:
        raise ValueError(f"transform needs degree >= 1, {L.name!r} has d = {d}")
    return d


def _phase_estimate(line: SmoothedLineEvaluator, a: float, b: float) -> float:
    """Phase entries H_direct expects `line` to form on [a, b]: `width` per
    centre, with the centres `line.spacing` apart, per anchor row (one per
    _BLOCK centres) and per row of the offset block (an exponential at each
    prime n, one product at each composite, or one anchor-times-offset
    product).  The line keeps each centre's sums, so every quadrature level
    after the first reuses them."""
    centres = (b - a) / line.spacing + 1.0
    return line.width * (centres + centres / _BLOCK + 1.0 + _BLOCK)


def H_direct(L: LSeriesInstance, alpha: float, T: float, sp: SmoothingParams,
             force: bool = False) -> complex:
    """Direct quadrature route.  Cost is the line evaluator's phase
    entries (see _phase_estimate); configurations whose estimate
    exceeds the operation budget (TWISTLAB_BUDGET, default 1e9) are refused
    unless force=True."""
    d = _require_transform_degree(L)
    budget = _budget()
    # the resonance phase d t log(t/(e alpha)) is I_n's phase at n = 1
    pf = PhaseFamily(alpha, 1, d)
    a, b = pf.interval(T)
    for pole in L.fe.poles:
        if abs(pole.location.real - 0.5) < 1e-6 and a - 1e-6 <= pole.location.imag <= b + 1e-6:
            raise PoleError(f"pole of {L.name!r} on the integration segment")
    X = sp.cutoff(T, d)
    line = SmoothedLineEvaluator(L, sp.with_X(X))

    cost = _phase_estimate(line, a, b)
    if cost > budget and not force:
        raise BudgetError(
            f"H_direct estimated cost {cost:.2e} exceeds budget "
            f"{budget:.2e}; pass force=True or raise TWISTLAB_BUDGET")
    tol = max(1e-8, 1e-4 * T)
    res = integrate_oscillatory(lambda t: pf.f(t) - math.pi / 4.0, (a, b), tol,
                                dphase=pf.fprime, amplitude=line.values)
    return res.value / math.sqrt(alpha)


def H_sum_side(L: LSeriesInstance, alpha: float, T: float,
               sp: SmoothingParams) -> complex:
    """Stationary-phase coefficient sum over the window (2T)^d < n < (3T)^d:

        sqrt(2 pi / d) sum (a_n / sqrt(n)) n^{1/(2d)}
                         e^{-(n/X)^p} e^{-i d alpha n^{1/d}}."""
    d = _require_transform_degree(L)
    X = sp.cutoff(T, d)
    lo = (2.0 * T) ** d
    hi = (3.0 * T) ** d
    n_lo = int(math.floor(lo)) + 1
    n_hi = int(math.ceil(hi)) - 1
    if n_hi < n_lo:
        return 0.0 + 0.0j
    table = L.coefficients.bulk(n_hi).values
    n = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    a_n = table[n_lo - 1 : n_hi]
    terms = (a_n * n ** (1.0 / (2.0 * d) - 0.5)
             * np.exp(-((n / X) ** sp.p))
             * np.exp(-1j * d * alpha * n ** (1.0 / d)))
    return math.sqrt(2.0 * math.pi / d) * compensated_sum(terms)


def _jm_factor(A: float) -> complex:
    """(3^{1+iA} - 2^{1+iA}) / (1 + iA): the resonant integral J_m over K_T
    is this times (alpha T)^{1+iA}."""
    e = 1.0 + 1j * A
    return (3.0 ** e - 2.0 ** e) / e


def kappa(L: LSeriesInstance, alpha: float, m: int,
          convention: str = "oracle-calibrated") -> complex:
    """The T^{1+iA} coefficient of the functional-equation route (see the
    module notes).  Requires the resonance condition m = C Q^2 alpha^d to
    1e-9 relative.

    `convention` admits only "oracle-calibrated", the one convention, and
    raises ValueError for anything else; it stays only because the
    benchmark workloads pass it positionally."""
    if convention != "oracle-calibrated":
        raise ValueError(f"kappa has one convention, 'oracle-calibrated'; "
                         f"got {convention!r}")
    inv = L.invariants()
    resonant = inv.C * L.fe.Q ** 2 * alpha ** inv.d
    if abs(resonant - m) > 1e-9 * max(1.0, abs(m)):
        raise ResonanceError(
            f"alpha = {alpha} is not the resonance of m = {m}: "
            f"C Q^2 alpha^d = {resonant}")
    return (L.fe.omega * cmath.exp(1j * (inv.B - math.pi / 4.0))
            * m ** -0.5 * alpha ** (0.5 + 1j * inv.A) * _jm_factor(inv.A))


def H_fe_side(L: LSeriesInstance, T: float, kap: complex, m: int,
              a_m: Optional[complex] = None) -> complex:
    """kappa conj(a_m) T^{1+iA}.  `a_m` is read from L when not given;
    reading it builds the table a_1..a_m, so a caller with many T reads it
    once and passes it."""
    if T == 0.0:
        return 0.0 + 0.0j
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    if a_m is None:
        a_m = L.coefficients.coefficient(m)
    if abs(a_m) == 0.0:
        raise ResonanceError(f"a_{m} vanishes for {L.name!r}")
    A = L.invariants().A
    return kap * a_m.conjugate() * T ** (1.0 + 1j * A)


def _pair_dev(x: complex, y: complex) -> float:
    denom = max(abs(x), abs(y))
    return abs(x - y) / denom if denom > 0 else 0.0


def run_transform(L: LSeriesInstance, m: int, T: float, sp: SmoothingParams,
                  routes: Sequence[str] = ROUTES,
                  force: bool = False,
                  a_m: Optional[complex] = None) -> TransformReport:
    """Evaluate the requested H routes (names from ROUTES) at one T and
    report pairwise relative deviations |a - b| / max(|a|, |b|), keyed
    "a-b" in ROUTES order.  `a_m` is the fe route's coefficient, as in
    H_fe_side."""
    for r in routes:
        if r not in ROUTES:
            raise ValueError(f"unknown route {r!r}")
    alpha = L.resonance_alpha(m)
    values: Dict[str, complex] = {}
    if "direct" in routes:
        values["direct"] = H_direct(L, alpha, T, sp, force=force)
    if "sum" in routes:
        values["sum"] = H_sum_side(L, alpha, T, sp)
    if "fe" in routes:
        values["fe"] = H_fe_side(L, T, kappa(L, alpha, m), m, a_m)
    devs = {f"{r1}-{r2}": _pair_dev(values[r1], values[r2])
            for r1, r2 in itertools.combinations(values, 2)}
    return TransformReport(T=T, direct=values.get("direct"),
                           sum_side=values.get("sum"), fe_side=values.get("fe"),
                           deviations=devs)


def constant_conventions() -> str:
    """Human-readable summary of the constant conventions this module uses
    (printed by the CLI's --ledger flag)."""
    return (
        "Constant conventions (fixed by three-route cross-validation):\n"
        "  I_n kernel        bare integral over K_T = [2aT, 3aT]; no 1/(2 pi i)\n"
        "  stationary window (2T)^d < n < (3T)^d  (stationary point c = a n^{1/d} in K_T)\n"
        "  stationary term   sqrt(2 pi a / d) n^{1/(2d)} exp(-i d a n^{1/d})\n"
        "  flat-phase ranges n <= T^d (|f'| >= d log 2), n >= (4T)^d (|f'| >= d log 4/3)\n"
        "  J_n base          (n^{-1} C Q^2 a^d)^{-it} t^{iA}; resonance m = C Q^2 a^d\n"
        "  kappa calibrated  omega e^{i(B-pi/4)} m^{-1/2} a^{1/2+iA} (3^e-2^e)/e, e = 1+iA\n"
        "                    (|kappa| = sqrt(2 pi) = 2.5066 for ones-series at a = 2 pi;\n"
        "                     matches measured |H_direct|/T; the only kappa computed)\n"
        "  rejected form     omega e^{iB} sqrt(C) Q a^{(1-d)/2+iA} (3^e-2^e)/e\n"
        "                    (the commonly printed closed form: |.| = 0.3989 for\n"
        "                     ones-series at a = 2 pi, which |H_direct|/T rejects)\n"
        "  B constant        -2[sum Im mu_j log l_j - sum Im mu'_j log l'_j]\n"
        "                    - (pi/2)[d/2 + 2 Re(mu - mu') - (r - r')]\n"
        "                    (+pi/4 for the ones series; validated against exact\n"
        "                     gamma-factor ratios, which reject the sign-flipped form)\n"
    )
