"""Smoothed evaluation of F(s), an independent zeta oracle, and the
functional-equation cross-check.

The smoothed series sum_{n<=N*} a_n e^{-(n/X)^p} n^{-s} converges everywhere;
what it computes differs from F(s) by (i) one term per declared pole of F and
(ii) a rapidly decreasing series of contour residues carrying powers X^{-kp}.
SmoothedLineEvaluator is the one implementation of the series and of both
corrections, for any abscissa sigma and many t at once: it removes the pole
terms (from the declared Laurent data) and the k = 1, 2 residues (through the
functional equation), which is what pushes standalone evaluation to ~1e-10
absolute accuracy at desk scale.  smoothed_value is its one-point case.
Callers that only need the raw smoothed object (the transform pipeline
budgets those remainders into its route deviations) pass corrections=False.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import BudgetError, PoleError
from .gammafn import (_check_poles, _log_gamma_vec, _ratio_args, digamma,
                      gamma_ratio_exact_grid)
from .gammafn import log_gamma  # unused here; the benchmark tracer wraps it
from .model import LSeriesInstance, SmoothingParams
from .summation import compensated_sum  # unused here; the benchmark tracer wraps it

_POLE_RADIUS = 1e-6
_FE_SAFE_RADIUS = 0.25
_K_TERMS = 2
_MIN_T_FOR_FE_CORRECTION = 2.0


@dataclass(frozen=True)
class SmoothedEvaluation:
    value: complex
    terms_used: int
    tail_bound: float


def default_cutoff(t: float, d: float) -> float:
    """Standalone-evaluation cutoff: max(1e3, 10 (t/2pi)^d)."""
    return max(1e3, 10.0 * (abs(t) / (2.0 * math.pi)) ** d)


def _truncation_count(K: float, c: float, x: float, X: float, p: float,
                      eps: float) -> Tuple[int, float]:
    """Minimal N with a certified tail bound below eps for the series
    sum_{n>N} K n^{c-x} e^{-(n/X)^p}, via the integral test and an upper
    incomplete-gamma estimate."""
    a = (c - x + 1.0) / p

    def bound(N: float) -> float:
        w = (N / X) ** p
        if a > 1.0:
            if w < 2.0 * (a - 1.0) + 2.0:
                return math.inf
            factor, wexp = 2.0, a - 1.0
        elif a < 0.0:
            # Gamma(a,w) <= e^{-w} min(w^{a-1}, w^a / -a)
            if math.log(w) * (a - 1.0) > math.log(w) * a - math.log(-a):
                factor, wexp = 1.0 / (-a), a
            else:
                factor, wexp = 1.0, a - 1.0
        else:
            factor, wexp = 1.0, a - 1.0
        # integrand must be decreasing at N
        if c > x and N < X * ((c - x) / p) ** (1.0 / p):
            return math.inf
        logb = (math.log(factor * K / p) + (c - x + 1.0) * math.log(X)
                + wexp * math.log(w) - w)
        return math.exp(logb) if logb < 700 else math.inf

    N = 16.0
    while bound(N) >= eps:
        N = N * 1.25 + 8.0
        if N > 5e7:
            raise BudgetError(
                f"truncation rule needs more than 5e7 terms (X={X}, eps={eps})")
    lo, hi = 8, int(math.ceil(N))
    while lo < hi:
        mid = (lo + hi) // 2
        if bound(mid) < eps:
            hi = mid
        else:
            lo = mid + 1
    return max(8, lo), bound(max(8, lo))


def _check_pole_proximity(L: LSeriesInstance, s: complex) -> None:
    for pole in L.fe.poles:
        if abs(s - pole.location) < _POLE_RADIUS:
            raise PoleError(f"evaluation point {s} within {_POLE_RADIUS} of pole "
                            f"at {pole.location}")


def smoothed_value(L: LSeriesInstance, z: complex, t: float, sp: SmoothingParams,
                   corrections: bool = True) -> SmoothedEvaluation:
    """Smoothed evaluation of F(z + it): the one-point case of
    SmoothedLineEvaluator at sigma = Re(z + it), with X = sp.X or, when that
    is unset, default_cutoff(t, d).

    With corrections enabled (default), declared pole terms and the leading
    contour residues are removed, so the value approximates F itself rather
    than the bare smoothed object.
    """
    s = complex(z) + 1j * t
    _check_pole_proximity(L, s)
    if sp.X is None:
        sp = sp.with_X(default_cutoff(t, L.invariants().d))
    line = SmoothedLineEvaluator(L, sp, corrections, sigma=s.real)
    value = complex(line.values(np.array([s.imag]))[0])
    return SmoothedEvaluation(value=value, terms_used=line.terms,
                              tail_bound=line.tail)


def smoothed_value_conjugate(L: LSeriesInstance, z: complex, t: float,
                             sp: SmoothingParams,
                             corrections: bool = True) -> SmoothedEvaluation:
    """Smoothed evaluation of Ft(1 - z - it) (conjugated coefficients,
    reflected exponent): identically conj(F(1 - conj(z) + it))."""
    ev = smoothed_value(L, 1.0 - complex(z).conjugate(), t, sp, corrections)
    return SmoothedEvaluation(value=ev.value.conjugate(),
                              terms_used=ev.terms_used, tail_bound=ev.tail_bound)


def fe_cross_check(L: LSeriesInstance, t: float, sp: SmoothingParams) -> float:
    """Relative functional-equation defect on the critical line,

        |Phi(1/2+it) - omega conj(Phi(1/2+it))| / |Phi(1/2+it)|,

    assembled from smoothed values on both sides and the exact gamma-factor
    ratio.  A mis-entered Q, omega, gamma spec, or coefficient stream makes
    this blow up, so it validates preset data end to end."""
    s = complex(0.5, t)
    _check_pole_proximity(L, s)
    F = smoothed_value(L, 0.5, t, sp).value
    Ft = smoothed_value_conjugate(L, 0.5, t, sp).value
    ratio = complex(gamma_ratio_exact_grid(L.fe.gamma, 0.5, np.array(t)))
    Q = L.fe.Q
    reflected = L.fe.omega * Q ** (1.0 - 2.0 * s) * ratio * Ft
    return abs(F - reflected) / abs(F)


# ---------------------------------------------------------------------------
# Independent zeta oracle: accelerated alternating series
# ---------------------------------------------------------------------------

def _borwein(s: complex, order: int) -> complex:
    d = [0] * (order + 1)
    acc = 0
    for i in range(order + 1):
        acc += (math.factorial(order + i - 1) * 4 ** i
                // (math.factorial(order - i) * math.factorial(2 * i)))
        d[i] = order * acc
    dn = d[order]
    total = 0.0 + 0.0j
    for k in range(order):
        total += (-1) ** k * ((d[k] - dn) / dn) * (k + 1) ** (-s)
    return -total / (1.0 - 2.0 ** (1.0 - s))


_EM_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66,
                 -691.0 / 2730, 7.0 / 6, -3617.0 / 510, 43867.0 / 798,
                 -174611.0 / 330, 854513.0 / 138, -236364091.0 / 2730)


def _euler_maclaurin(s: complex) -> complex:
    N = max(32, int(2 * abs(s.imag)) + 8)
    n = np.arange(1, N, dtype=float)
    total = complex(np.sum(np.exp(-s * np.log(n))))
    total += N ** (1.0 - s) / (s - 1.0) + 0.5 * N ** (-s)
    poch = s
    npow = N ** (-s - 1.0)
    for k, b2k in enumerate(_EM_BERNOULLI, start=1):
        total += b2k / math.factorial(2 * k) * poch * npow
        poch *= (s + (2 * k - 1)) * (s + 2 * k)
        npow /= N * N
    return total


def reference_zeta(s: complex) -> complex:
    """zeta(s) by the accelerated alternating series; ~1e-12 for |Im s| <= 100
    and 0 <= Re s <= 3.  Falls back to Euler-Maclaurin near the zeros of the
    alternating-series denominator 1 - 2^{1-s}."""
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta pole at s = 1")
    if abs(1.0 - 2.0 ** (1.0 - s)) < 0.05:
        return _euler_maclaurin(s)
    order = int((abs(s.imag) * math.pi / 2 + 30.0) / 1.7627) + 12
    v1 = _borwein(s, order)
    v2 = _borwein(s, order + 20)
    if abs(v1 - v2) > 1e-9 * (1.0 + abs(v2)):
        return _euler_maclaurin(s)
    return v2


# ---------------------------------------------------------------------------
# The smoothed evaluator
# ---------------------------------------------------------------------------

class SmoothedLineEvaluator:
    """F(sigma + it) on many t at once with a fixed cutoff X, sharing
    precomputed tables.

    The weighted series is truncated at the smallest N (`terms`) whose
    certified tail bound drops below sp.epsilon.  With corrections enabled
    (default), every declared pole term is removed, and so are the contour
    residues (-1)^k/k! F(s - kp) X^{-kp}, k = 1, 2, each computed through the
    functional equation from the conjugated series at 1 - s + kp.  A residue
    is applied at those t with |t| >= 2 whose reflected point 1 - s + kp
    keeps 0.25 away from every conjugated pole.  `tail` bounds the
    truncation error of the series plus that of every residue series.
    """

    def __init__(self, L: LSeriesInstance, sp: SmoothingParams,
                 corrections: bool = True, sigma: float = 0.5):
        if sp.X is None:
            raise ValueError("line evaluator needs an explicit X")
        self.L = L
        self.sp = sp
        self.corrections = corrections
        self.sigma = sigma
        self.X = X = sp.X
        K, c = L.coefficients.mag_bound
        self.terms, self.tail = _truncation_count(K, c, sigma, X, sp.p, sp.epsilon)
        # (abscissa, length) of the main series, then of each residue series
        series = [(sigma, self.terms)]
        x_k, const_k = [], []
        self._poles = []
        if corrections:
            self._poles = [pole for pole in L.fe.poles if pole.leading]
            if any(pole.order > 2 for pole in self._poles):
                raise NotImplementedError("pole corrections cover orders 1 and 2")
            for k in range(1, _K_TERMS + 1):
                weight = X ** (-k * sp.p) / math.factorial(k)
                if weight < 1e-300:
                    break
                # the term only needs enough relative accuracy to matter at `weight`
                eps_k = min(1e-4, max(sp.epsilon, sp.epsilon / (10.0 * weight)))
                x = sigma - k * sp.p
                N_k, _ = _truncation_count(K, c, 1.0 - x, X, sp.p, eps_k)
                self.tail += eps_k * weight
                series.append((1.0 - x, N_k))
                x_k.append(x)
                const_k.append((-1) ** k * weight * L.fe.omega
                               * L.fe.Q ** (1.0 - 2.0 * x))
        self._x_k = np.array(x_k)[:, None]
        self._const_k = np.array(const_k, dtype=complex)[:, None]
        width = max(N for _, N in series)
        table = L.coefficients.bulk(width).values
        n = np.arange(1, width + 1, dtype=np.float64)
        self._lnn = np.log(n)
        damp = (n / X) ** sp.p
        # Residue series are kept with unconjugated coefficients: the series
        # sum conj(a_n) w_n n^{-(1-x)+it} is the conjugate of
        # sum a_n w_n n^{-(1-x)-it}, so every series takes a prefix of one
        # phase block e^{-it ln n}.
        self._coefs = [table[:N] * np.exp(-damp[:N] - x * self._lnn[:N])
                       for x, N in series]

    def values(self, t: np.ndarray, block: int = 448) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        sums = np.empty((len(self._coefs), t.size), dtype=complex)
        for lo in range(0, t.size, block):
            phases = np.exp(-1j * np.outer(t[lo:lo + block], self._lnn))
            for row, coef in zip(sums, self._coefs):
                row[lo:lo + block] = phases[:, :coef.size] @ coef
        if not self.corrections:
            return sums[0]
        return sums[0] - self._corrections(t, np.conj(sums[1:]))

    def _corrections(self, t: np.ndarray, ft: np.ndarray) -> np.ndarray:
        """Pole terms plus contour residues at each t; ft holds the
        conjugated residue series.  All their Gamma values come from one
        log Gamma call."""
        p, lnX, fe = self.sp.p, math.log(self.X), self.L.fe
        s = self.sigma + 1j * t
        w0 = np.array([pole.location for pole in self._poles])[:, None] - s
        reflected = 1.0 - self._x_k - 1j * t
        applied = np.abs(t) >= _MIN_T_FOR_FE_CORRECTION
        for pole in fe.poles:
            applied = applied & (np.abs(reflected - np.conj(pole.location))
                                 >= _FE_SAFE_RADIUS)
        ratio_args, signs = _ratio_args(fe.gamma, self._x_k, t)
        args = np.concatenate([(w0 / p).ravel(),
                               np.where(applied, ratio_args, 1.0).ravel()])
        _check_poles(args)
        lg = _log_gamma_vec(args)

        g = np.exp(lg[:w0.size].reshape(w0.shape) + w0 * lnX) / p
        corr = np.zeros(t.shape, dtype=complex)
        for pole, w, gj in zip(self._poles, w0, g):
            if pole.order == 1:
                corr += pole.leading[0] * gj
            else:
                psi = np.array([digamma(v / p) for v in w])
                corr += pole.leading[0] * gj * (psi / p + lnX) + pole.leading[1] * gj

        log_ratio = np.sum(signs * lg[w0.size:].reshape(ratio_args.shape), axis=0)
        resid = self._const_k * np.exp(log_ratio - 2j * t * math.log(fe.Q)) * ft
        return corr + np.sum(np.where(applied, resid, 0.0), axis=0)
