"""Complex log-gamma and the exact vs asymptotic gamma-factor ratio.

Self-contained: log Gamma is computed from the de Moivre series with a
fixed table of Bernoulli coefficients, an argument shift into |z| >= 16,
and the reflection formula for Re z < 1/2, in one vectorized kernel that
the scalar log_gamma also calls.  No external special-function
dependency; relative accuracy is ~1e-14 on the right half-plane.  Each
entry is reduced on its own, so a value does not depend on the other
entries of the array it is computed with.

All gamma-factor products are assembled in log space and exponentiated
once, so ratios stay finite far beyond the overflow range of Gamma itself.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, SectorError
from .model import GammaFactorSpec, stirling_constants

LOG_2PI = math.log(2.0 * math.pi)
LOG_PI = math.log(math.pi)

# B_2, B_4, ..., B_22 as exact (numerator, denominator) pairs.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
              (7, 6), (-3617, 510), (43867, 798), (-174611, 330), (854513, 138))

# B_{2k} / (2k (2k-1)) for k = 1..11 (log Gamma) and B_{2k} / (2k) for
# k = 1..8 (digamma); int / int rounds each exact rational once.
_STIRLING = tuple(b / (c * 2 * k * (2 * k - 1))
                  for k, (b, c) in enumerate(_BERNOULLI, 1))
_DIGAMMA = tuple(b / (c * 2 * k) for k, (b, c) in enumerate(_BERNOULLI[:8], 1))

_SHIFT_RADIUS = 16.0


def _check_poles(z: np.ndarray) -> None:
    """Raise PoleError if any entry of z is a pole of Gamma (a non-positive
    integer)."""
    z = np.asarray(z, dtype=complex)
    hit = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if hit.any():
        raise PoleError(f"log Gamma pole at z = {complex(z[hit][0])}")


def _log_sin_pi_vec(z: np.ndarray) -> np.ndarray:
    """Analytic continuation of log sin(pi z), stable for large |Im z|.

    For Im z >= 0: log(i/2) - i pi z + log(1 - e^{2 pi i z}); the last log
    stays principal because |e^{2 pi i z}| <= 1.  Lower half plane by
    conjugation symmetry.
    """
    lower = z.imag < 0.0
    zz = np.where(lower, np.conj(z), z)
    w = np.exp(2j * math.pi * zz)
    val = 1j * math.pi / 2 - math.log(2.0) - 1j * math.pi * zz + np.log(1.0 - w)
    return np.where(lower, np.conj(val), val)


def _reflect_and_shift(z, term):
    """The argument reduction shared by _log_gamma_vec and _digamma_vec:
    z flattened, the mask of entries with Re z < 1/2, and, with w those
    entries reflected to 1 - z (so Re w >= 1/2) and m each entry's own
    shift, the smallest integer m >= 0 with |w + m| >= _SHIFT_RADIUS, the
    shifted w + m and sum_{j<m} term(w + j).  The sum runs in ascending j
    over a table zeroed past each entry's m, so trailing zeros leave its
    bits alone and every value depends on its own entry only."""
    z = np.asarray(z, dtype=complex).ravel()
    left = z.real < 0.5
    w = np.where(left, 1.0 - z, z)
    gap = np.sqrt(np.maximum(_SHIFT_RADIUS ** 2 - w.imag ** 2, 0.0)) - w.real
    m = np.ceil(np.maximum(gap, 0.0))
    j = np.arange(int(m.max(initial=0.0)))
    if not j.size:
        return z, left, w, 0.0
    table = np.where(j < m[:, None], term(w[:, None] + j), 0.0)
    return z, left, w + m, np.cumsum(table, axis=1)[:, -1]


def _log_gamma_vec(z) -> np.ndarray:
    """log Gamma on an array of any shape (no pole checking: callers keep
    away from the poles or run _check_poles first).

    Entries with Re z < 1/2 are reflected to 1 - z; then each entry is
    shifted by its own integer m so that |z + m| >= _SHIFT_RADIUS, and
    log Gamma(z) = series(z + m) - sum_{j<m} log(z + j).  Each value
    depends on its own argument only.
    """
    shape = np.shape(z)
    z, left, w, shifted = _reflect_and_shift(z, np.log)
    inv = 1.0 / w
    inv2 = inv * inv
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * inv2 + c
    res = (w - 0.5) * np.log(w) - w + 0.5 * LOG_2PI + series * inv - shifted
    if left.any():
        res[left] = LOG_PI - _log_sin_pi_vec(z[left]) - res[left]
    return res.reshape(shape)


def _digamma_vec(z) -> np.ndarray:
    """psi(z) = Gamma'(z)/Gamma(z) on an array of any shape (no pole
    checking), with the reduction of _log_gamma_vec:
    psi(z) = psi(1 - z) - pi cot(pi z) for Re z < 1/2, and
    psi(z) = psi(z + m) - sum_{j<m} 1/(z + j) before the asymptotic series.
    """
    shape = np.shape(z)
    z, left, w, shifted = _reflect_and_shift(z, lambda v: 1.0 / v)
    inv2 = 1.0 / (w * w)
    series = _DIGAMMA[-1]
    for c in _DIGAMMA[-2::-1]:
        series = series * inv2 + c
    res = np.log(w) - 0.5 / w - series * inv2 - shifted
    if left.any():
        res[left] -= math.pi / np.tan(math.pi * z[left])
    return res.reshape(shape)


def log_gamma(z) -> complex:
    """Principal-branch log Gamma(z).

    Raises PoleError at the non-positive integers.  Reflection is used for
    Re z < 1/2, argument shifting plus the Bernoulli series elsewhere.
    """
    z = np.asarray(z, dtype=complex)
    _check_poles(z)
    return complex(_log_gamma_vec(z))


@dataclass(frozen=True)
class GammaRatioResult:
    """Exact and asymptotic values of the ratio Gt(1-x-it)/G(x+it)."""

    exact: complex
    asymptotic: complex
    relative_error: float


def _ratio_args(spec: GammaFactorSpec, x, t):
    """Every Gamma argument of Gt(1-x-it)/G(x+it), stacked on a new first
    axis over the broadcast shape of x and t, with the sign its log Gamma
    enters the log ratio with (shaped to broadcast against the stack).

    Gt(s) = conj(G(conj(s))) replaces every mu by conj(mu).
    """
    s = x + 1j * np.asarray(t, dtype=float)
    args, signs = [], []
    for factors, sign in ((spec.numerator, 1.0), (spec.denominator, -1.0)):
        for lam, mu in factors:
            args += [lam * (1.0 - s) + mu.conjugate(), lam * s + mu]
            signs += [sign, -sign]
    return (np.array(args, dtype=complex).reshape((len(args),) + s.shape),
            np.array(signs).reshape((-1,) + (1,) * s.ndim))


def gamma_ratio_exact_grid(spec: GammaFactorSpec, x: float, t) -> np.ndarray:
    """Exact ratio Gt(1-x-it)/G(x+it) over an array of t: the log-gamma sum
    from one log Gamma call, exponentiated once.  Raises PoleError if any
    Gamma argument is a pole."""
    args, signs = _ratio_args(spec, x, t)
    _check_poles(args)
    return np.exp(np.sum(signs * _log_gamma_vec(args), axis=0))


def sector_threshold(spec: GammaFactorSpec) -> float:
    """Smallest t at which the asymptotic formula is served: all gamma
    arguments must be safely inside the right sector, enforced as
    t >= 2 max_j (|mu_j|+1)/lambda_j over numerator and denominator."""
    factors = spec.numerator + spec.denominator
    return 2.0 * max(((abs(mu) + 1.0) / lam for lam, mu in factors), default=0.0)


def gamma_ratio_asymptotic(spec: GammaFactorSpec, x: float, t: float) -> complex:
    """Leading asymptotic of the ratio:

        (C t^d)^{(1/2 - x)} e^{-i t d log(t/e)} t^{iA} e^{iB} C^{-it}

    with constants from stirling_constants.  Relative error is O(1/t).
    Rejects t below the sector threshold.
    """
    tmin = sector_threshold(spec)
    if not t > 0.0 or t < tmin:
        raise SectorError(f"asymptotic ratio needs t >= {tmin}, got {t}")
    inv = stirling_constants(spec)
    d, A, B, C = inv.d, inv.A, inv.B, inv.C
    modulus = (C * t ** d) ** (0.5 - x)
    phase = (-t * d * math.log(t / math.e)
             + A * math.log(t) + B - t * math.log(C))
    return modulus * cmath.exp(1j * phase)


def gamma_ratio_compare(spec: GammaFactorSpec, x: float, t: float) -> GammaRatioResult:
    """Exact and asymptotic ratio side by side, with their relative error.
    Refuses t <= 0 (ValueError), then a Gamma pole (PoleError), then a t
    below the sector threshold (SectorError)."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    exact = complex(gamma_ratio_exact_grid(spec, x, t))
    asym = gamma_ratio_asymptotic(spec, x, t)
    rel = abs(exact - asym) / abs(asym) if asym != 0 else math.inf
    return GammaRatioResult(exact=exact, asymptotic=asym, relative_error=rel)
