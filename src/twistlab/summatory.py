"""Summatory-function experiments: |a_n| partial sums, the smoothed additive
twist over dyadic blocks, growth-exponent regression, and the lower-bound
certificate that turns the twist's resonant main term into a per-T check.

The twist over (T, 4T) is

    sum_{T<n<4T} a_n e^{-(n/X)^p} e^{-i d alpha n^{1/d}},    X = T^{d+rho},

whose modulus at the resonant alpha grows like T^{1/2 + 1/(2d)}.  The
certificate checks, per grid point, the chain

    sum_{T<n<4T} |a_n|  >=  |twist(T)|  >=  (1/2) |kappa sqrt(d) a_m| T^{1/2+1/(2d)}

(the first inequality is the triangle inequality and must always hold; the
second is the resonance lower bound, reported pass/fail with its margin).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .model import LSeriesInstance, SmoothingParams
from .summation import compensated_real_sum, compensated_sum

#: rho used by the twist/certificate experiments unless the caller overrides
#: it via SmoothingParams: a larger cutoff X = T^{d+1} keeps the smoothing
#: deficit inside the certificate margins on small dyadic blocks.
TWIST_RHO = 1.0


@dataclass(frozen=True)
class TwistReport:
    grid: Tuple[float, ...]
    twist_values: Tuple[complex, ...]
    normalized: Tuple[float, ...]
    slope: float
    slope_stderr: float


@dataclass(frozen=True)
class GrowthReport:
    grid: Tuple[float, ...]
    sums: Tuple[float, ...]
    slope: float
    intercept: float
    slope_stderr: float


@dataclass(frozen=True)
class CertificateRow:
    T: float
    abs_sum: float
    twist_abs: float
    bound: float
    triangle_ok: bool
    passed: bool
    margin: float


@dataclass(frozen=True)
class CertificateReport:
    alpha: float
    m: int
    constant: float  # (1/2) |kappa sqrt(d) a_m|
    rows: Tuple[CertificateRow, ...]

    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def abs_partial_sum(L: LSeriesInstance, X: float) -> float:
    """sum_{n < X} |a_n|, compensated, ascending n."""
    if X < 1:
        raise ValueError("X must be >= 1")
    N = int(math.ceil(X)) - 1
    if N < 1:
        return 0.0
    table = L.coefficients.bulk(N).values
    return compensated_real_sum(np.abs(table))


def _twist_window(T: float) -> Tuple[int, int]:
    lo = int(math.floor(T)) + 1
    hi = int(math.ceil(4.0 * T)) - 1
    return lo, hi


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")


def _twist_degree(L: LSeriesInstance) -> float:
    d = L.invariants().d
    if d < 1.0:
        raise ValueError("additive twist needs degree >= 1")
    return d


def _grid_table(L: LSeriesInstance, T_grid: Sequence[float]) -> np.ndarray:
    """a_1..a_M with M large enough for the twist window of every T."""
    hi = max((_twist_window(T)[1] for T in T_grid), default=1)
    return L.coefficients.bulk(max(hi, 1)).values


def _twist(table: np.ndarray, alpha: float, T: float, d: float,
           sp: SmoothingParams) -> complex:
    """The twisted sum over T < n < 4T; table[k] is a_{k+1} and reaches
    past the window."""
    if T < 1.0:
        return 0.0 + 0.0j
    X = sp.cutoff(T, d)
    lo, hi = _twist_window(T)
    if hi < lo:
        return 0.0 + 0.0j
    n = np.arange(lo, hi + 1, dtype=np.float64)
    a_n = table[lo - 1 : hi]
    terms = (a_n * np.exp(-((n / X) ** sp.p))
             * np.exp(-1j * d * alpha * n ** (1.0 / d)))
    return compensated_sum(terms)


def additive_twist(L: LSeriesInstance, alpha: float, T: float,
                   sp: SmoothingParams) -> complex:
    """The smoothed twisted sum over T < n < 4T (see module notes)."""
    _check_alpha(alpha)
    return _twist(_grid_table(L, [T]), alpha, T, _twist_degree(L), sp)


def _loglog_fit(grid: Sequence[float],
                values: Sequence[float]) -> Tuple[float, float, float]:
    """Least-squares fit of log(values) against log(grid): slope, intercept,
    and the slope's standard error from the fit residuals.  Needs >= 4
    geometrically spaced points."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.size < 4:
        raise ValueError("need at least 4 grid points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    ratios = grid[1:] / grid[:-1]
    if np.max(ratios) > 4.0 * np.min(ratios):
        raise ValueError("grid spacing is not geometric")
    if np.any(values <= 0):
        raise ValueError("values must be positive for a log-log fit")
    x = np.log(grid)
    y = np.log(values)
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    if sxx == 0.0:
        raise ValueError("degenerate grid")
    slope = float(np.sum(xc * y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    dof = max(1, grid.size - 2)
    stderr = math.sqrt(float(np.sum(resid * resid)) / dof / sxx)
    return slope, intercept, stderr


def growth_exponent(grid: Sequence[float], values: Sequence[float]) -> Tuple[float, float]:
    """Slope and standard error of the log-log fit (see _loglog_fit)."""
    slope, _, stderr = _loglog_fit(grid, values)
    return slope, stderr


def run_growth_scan(L: LSeriesInstance, X_grid: Sequence[float]) -> GrowthReport:
    sums = [abs_partial_sum(L, X) for X in X_grid]
    slope, intercept, stderr = _loglog_fit(X_grid, sums)
    return GrowthReport(grid=tuple(float(v) for v in X_grid), sums=tuple(sums),
                        slope=slope, intercept=intercept, slope_stderr=stderr)


def run_twist_scan(L: LSeriesInstance, alpha: float, T_grid: Sequence[float],
                   sp: SmoothingParams) -> TwistReport:
    _check_alpha(alpha)
    d = _twist_degree(L)
    expo = 0.5 + 1.0 / (2.0 * d)
    table = _grid_table(L, T_grid)
    tws = [_twist(table, alpha, T, d, sp) for T in T_grid]
    normalized = [abs(tw) / T ** expo for tw, T in zip(tws, T_grid)]
    slope, stderr = growth_exponent(T_grid, [abs(tw) for tw in tws])
    return TwistReport(grid=tuple(float(T) for T in T_grid),
                       twist_values=tuple(tws),
                       normalized=tuple(normalized),
                       slope=slope, slope_stderr=stderr)


def omega_certificate(L: LSeriesInstance, alpha: float, m: int,
                      kap: complex, T_grid: Sequence[float],
                      sp: SmoothingParams) -> CertificateReport:
    """Per-T check of the certificate chain, with kap = kappa(L, alpha, m).
    A failing row is a recorded result, not an error."""
    _check_alpha(alpha)
    d = _twist_degree(L)
    a_m = L.coefficients.coefficient(m)
    constant = 0.5 * abs(kap) * math.sqrt(d) * abs(a_m)
    expo = 0.5 + 1.0 / (2.0 * d)
    table = _grid_table(L, T_grid)
    rows: List[CertificateRow] = []
    for T in T_grid:
        lo, hi = _twist_window(T)
        abs_sum = compensated_real_sum(np.abs(table[lo - 1 : hi])) if hi >= lo else 0.0
        tw = abs(_twist(table, alpha, T, d, sp))
        bound = constant * T ** expo
        rows.append(CertificateRow(
            T=float(T), abs_sum=abs_sum, twist_abs=tw, bound=bound,
            triangle_ok=abs_sum >= tw * (1.0 - 1e-12),
            passed=tw >= bound,
            margin=tw / bound if bound > 0 else math.inf))
    return CertificateReport(alpha=alpha, m=m, constant=constant,
                             rows=tuple(rows))
