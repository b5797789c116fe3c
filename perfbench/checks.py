"""Correctness checks for the benchmark's operations.

Every check returns None when the result passes and a one-line reason when
it does not.  Checks run outside the timed region.  Tolerances come from the
acceptance criteria (tests/test_acceptance.py) or from the operation's own
stated accuracy, never from the observed results:

* AC-1: gamma-ratio relative error <= c / t with the pinned constants;
* AC-2: |smoothed_value - oracle| < 1e-8, FE defect < 1e-6;
* AC-3: I_n within 5 % of the stationary-phase value inside the window and
  within 10x the first-derivative bound outside it;
* AC-4: degree-1 direct-fe deviation <= 0.15;
* AC-5 to AC-7: triangle inequality on every certificate row, slope bands.

Where no independent route exists, values are compared with those recorded
in reference.json when the benchmark was introduced: H_direct within twice
its quadrature tolerance (both runs are within tol of the converged value),
coefficient sums and closed forms within 1e-12 relative.
"""
from __future__ import annotations

import json
import math
import os
from typing import Dict, Iterable, Optional, Sequence

from twistlab import evaluate, oscillatory
from twistlab.model import SmoothingParams
from twistlab.presets import get_preset

AC1_CONSTANTS = {("zeta", 0.5): 0.048, ("zeta", 0.6): 0.043,
                 ("delta", 0.5): 34.7, ("delta", 0.6): 34.8,
                 ("zeta-shift-pair", 0.5): 0.20, ("zeta-shift-pair", 0.6): 0.21}
AC2_VALUE_TOL = 1e-8
AC2_FE_TOL = 1e-6
AC3_REL = 0.05
AC3_BOUND_FACTOR = 10.0
AC4_BOUND = 0.15
AC6_MIN_MARGIN = 1.9
SUM_REL_TOL = 1e-12

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def close_abs(got: complex, want: complex, tol: float, what: str) -> Optional[str]:
    err = abs(got - want)
    if err < tol:
        return None
    return f"{what}: |got - want| = {err:.3e}, limit {tol:.1e}"


def close_rel(got: Sequence[complex], want: Sequence[complex], rel: float,
              what: str) -> Optional[str]:
    if len(got) != len(want):
        return f"{what}: {len(got)} values, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if abs(g - w) > rel * abs(w):
            return f"{what}[{i}]: {g} vs recorded {w} (rel limit {rel:.0e})"
    return None


def at_most(value: float, limit: float, what: str) -> Optional[str]:
    return None if value <= limit else f"{what}: {value:.4g} > {limit:.4g}"


def in_band(value: float, want: float, band: float, what: str) -> Optional[str]:
    return at_most(abs(value - want), band, f"{what} {value:.5f} off {want}")


def first_failure(reasons: Iterable[Optional[str]]) -> Optional[str]:
    for r in reasons:
        if r is not None:
            return r
    return None


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def _alternating(terms_at, order: int) -> complex:
    """Borwein's acceleration of sum_k (-1)^k a_k with a_k = terms_at(k)."""
    d, acc = [], 0
    for i in range(order + 1):
        acc += (math.factorial(order + i - 1) * 4 ** i
                // (math.factorial(order - i) * math.factorial(2 * i)))
        d.append(order * acc)
    dn = d[order]
    total = 0j
    for k in range(order):
        total += (-1) ** k * ((dn - d[k]) / dn) * terms_at(k)
    return total


def l_chi4(s: complex) -> complex:
    """L(s, chi_4) = sum_k (-1)^k (2k+1)^{-s}, accelerated; two orders must
    agree to 1e-11 relative."""
    s = complex(s)
    order = int((abs(s.imag) * math.pi / 2 + 30.0) / 1.7627) + 12
    v1 = _alternating(lambda k: (2 * k + 1) ** (-s), order)
    v2 = _alternating(lambda k: (2 * k + 1) ** (-s), order + 20)
    if abs(v1 - v2) > 1e-11 * (1.0 + abs(v2)):
        raise ArithmeticError(f"chi4 oracle did not converge at s = {s}")
    return v2


# ---------------------------------------------------------------------------
# Seed-commit reference values
# ---------------------------------------------------------------------------

_REFERENCE: Optional[Dict[str, dict]] = None


def reference(label: str) -> dict:
    global _REFERENCE
    if _REFERENCE is None:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            _REFERENCE = json.load(fh)
    return _REFERENCE[label]


def to_complex(pairs) -> list:
    return [complex(re, im) for re, im in pairs]


def from_complex(values) -> list:
    return [[complex(v).real, complex(v).imag] for v in values]


def recordable(kind: str, result) -> dict:
    """The values of a transform or sums result that reference.json keeps."""
    if kind == "run_transform":
        return {r: from_complex([getattr(result, attr)])
                for r, attr in (("direct", "direct"), ("sum", "sum_side"),
                                ("fe", "fe_side"))
                if getattr(result, attr) is not None}
    if kind == "run_twist_scan":
        return {"twist_values": from_complex(result.twist_values)}
    if kind == "omega_certificate":
        return {"abs_sum": from_complex(r.abs_sum for r in result.rows),
                "twist_abs": from_complex(r.twist_abs for r in result.rows)}
    if kind == "run_growth_scan":
        return {"sums": from_complex(result.sums)}
    raise KeyError(kind)


def against_reference(label: str, kind: str, result,
                      direct_tol: Optional[float] = None) -> Optional[str]:
    """Compare every recorded value: the direct route by absolute
    direct_tol, everything else by SUM_REL_TOL relative."""
    want = reference(label)
    got = recordable(kind, result)
    if sorted(got) != sorted(want):
        return f"{label}: fields {sorted(got)} vs recorded {sorted(want)}"
    reasons = []
    for key in sorted(want):
        g, w = to_complex(got[key]), to_complex(want[key])
        if key == "direct":
            reasons.append(close_abs(g[0], w[0], direct_tol, f"{label} direct"))
        else:
            reasons.append(close_rel(g, w, SUM_REL_TOL, f"{label} {key}"))
    return first_failure(reasons)


# ---------------------------------------------------------------------------
# Per-operation checks
# ---------------------------------------------------------------------------

def check_transform(label: str, L, T: float, result) -> Optional[str]:
    """Degree 1: the AC-4 bound on the direct-fe deviation.  All degrees:
    recorded seed values."""
    reasons = []
    alpha = L.resonance_alpha(1)
    if L.invariants().d == 1.0 and "direct-fe" in result.deviations:
        reasons.append(at_most(result.deviations["direct-fe"], AC4_BOUND,
                               f"{label} direct-fe deviation (AC-4)"))
    # H_direct's default quadrature tolerance, carried through 1/sqrt(alpha)
    direct_tol = 2.0 * max(1e-8, 1e-4 * T) / math.sqrt(alpha)
    reasons.append(against_reference(label, "run_transform", result, direct_tol))
    return first_failure(reasons)


def check_twist_scan(label: str, result) -> Optional[str]:
    return first_failure([
        in_band(result.slope, 0.75, 0.05, f"{label} slope (AC-5)"),
        against_reference(label, "run_twist_scan", result)])


def check_certificate(label: str, name: str, result) -> Optional[str]:
    reasons = [None if row.triangle_ok else
               f"{label}: triangle inequality fails at T={row.T}"
               for row in result.rows]
    if name == "zeta":
        reasons += [None if row.passed and row.margin >= AC6_MIN_MARGIN else
                    f"{label}: margin {row.margin:.3f} at T={row.T} (AC-6)"
                    for row in result.rows]
    reasons.append(against_reference(label, "omega_certificate", result))
    return first_failure(reasons)


def check_growth(label: str, name: str, result) -> Optional[str]:
    reasons = []
    if name == "zeta-shift-pair":
        reasons.append(in_band(result.slope, 1.5, 0.02, f"{label} slope (AC-7)"))
        want = (2.0 / 3.0) * (math.pi ** 2 / 6.0)
        constant = result.sums[-1] / result.grid[-1] ** 1.5
        reasons.append(in_band(constant, want, 0.02 * want, f"{label} constant (AC-7)"))
    elif name == "zeta-scaled":
        reasons.append(in_band(result.slope, 0.75, 0.03, f"{label} slope (AC-7)"))
    reasons.append(against_reference(label, "run_growth_scan", result))
    return first_failure(reasons)


def check_smoothed(label: str, name: str, s: complex, result) -> Optional[str]:
    """AC-2 against an oracle independent of the smoothed series."""
    if name in ("zeta", "zeta-doubled"):
        want = evaluate.reference_zeta(s)
    elif name == "zeta-scaled":  # zeta(2s - 1/2)
        want = evaluate.reference_zeta(2.0 * s - 0.5)
    elif name == "dirichlet-chi4":
        want = l_chi4(s)
    else:
        raise KeyError(name)
    return close_abs(result.value, want, AC2_VALUE_TOL, f"{label} (AC-2)")


def check_fe_defect(label: str, defect: float) -> Optional[str]:
    return None if defect < AC2_FE_TOL else f"{label}: FE defect {defect:.3e} (AC-2)"


def check_reference_zeta(label: str, s: complex, value: complex) -> Optional[str]:
    """Against the smoothed series with corrections at X = 1e4 (AC-2)."""
    want = evaluate.smoothed_value(get_preset("zeta"), s.real, s.imag,
                                   SmoothingParams(X=1e4)).value
    return close_abs(value, want, AC2_VALUE_TOL, f"{label} vs smoothed series")


def check_gamma(label: str, name: str, x: float, t: float, result) -> Optional[str]:
    c = AC1_CONSTANTS[(name, x)]
    return at_most(result.relative_error, c / t, f"{label} relative error (AC-1)")


def check_I_n(label: str, pf, T: float, value: complex) -> Optional[str]:
    if oscillatory.in_stationary_range(pf, T):
        sp = oscillatory.I_n_stationary_phase(pf, T)
        return at_most(abs(value - sp) / abs(sp), AC3_REL,
                       f"{label} stationary-phase deviation (AC-3)")
    bound = AC3_BOUND_FACTOR * oscillatory.first_derivative_bound(pf, T)
    return at_most(abs(value), bound, f"{label} |I_n| vs first-derivative bound (AC-3)")
