"""Smoothed evaluation of F(s), an independent zeta oracle, and the
functional-equation cross-check.

The smoothed series sum_{n<=N*} a_n e^{-(n/X)^p} n^{-s} converges everywhere;
what it computes differs from F(s) by (i) one term per declared pole of F and
(ii) a rapidly decreasing series of contour residues carrying powers X^{-kp}.
SmoothedLineEvaluator is the one implementation of the series and of both
corrections, for any abscissa sigma and many t at once: it removes every
declared pole's term (from its Laurent data, orders 1 and 2) and the k = 1, 2
residues (through the functional equation).  smoothed_value is its one-point
case.  plan_line makes every choice they carry out, before any table exists.

`tail_bound` certifies only the truncation of each series.  It does not
cover the contour remainder past k = 2, which can be far larger: at
sigma = 1/2, zeta-scaled at the default X is off by 1.0e-7 at t = 30 and
4.5e-5 at t = 50, and zeta-sq at X = 1e3 by 9.6 at t = 300, each with
tail_bound 1.1e-12 (ROADMAP open item 2).

The series are summed by Chebyshev blocks (Odlyzko-Schoenhage, Trans. AMS
309, 1988; Boyd, Chebyshev and Fourier Spectral Methods, 2001): each t is
snapped to the nearest centre m on the grid of multiples of the evaluator's
`spacing` s, one phase row e^{-im ln n} is formed per centre, and the
remaining factor e^{-i(t-m) ln n} is e^{-i(t-m) lambda} times a short
Jacobi-Anger (Chebyshev) series in x = 2(t - m)/s whose coefficients are
BLAS products of that row with real moment tables
Re c_n J_k((ln n - lambda) s/2) and Im c_n J_k((ln n - lambda) s/2) (one
table when c_n is real, as in every preset).  Its k-th term is bounded by
(r/2)^k/k! where a Taylor series in t - m has r^k/k!, so at the same order
the centres sit three times further apart.  The centres form an arithmetic
progression: the row of centre j = 8 J + r is an anchor row
e^{-i 8 J spacing ln n} times row r of an offset block formed once per
evaluator, with the spacing rounded down to 8 significant bits so that
both arguments are exact.  The phase is completely multiplicative in n, so
each anchor row and the offset block take an exponential at each prime n
and one product at each composite (the sieve behind Odlyzko-Schoenhage
evaluation of zeta).  The evaluator keeps every centre's products, so a
later call on the same centres (the next quadrature level) pays only
Clenshaw steps, and a t's value does not depend on the calls made before.
The corrections take log Gamma and psi at each t itself: with one-period
quadrature panels there are about as many nodes as centres.  A single t
is summed directly: one phase row and one numpy sum per series, in a fixed
order that does not depend on the BLAS thread count.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .coefficients import MAX_BULK
from .errors import BudgetError, PoleError
from .gammafn import (_check_poles, _digamma_vec, _log_gamma_vec, _ratio_args,
                      gamma_ratio_exact_grid)
from .gammafn import log_gamma  # unused here; the benchmark tracer wraps it
from .model import LSeriesInstance, PoleData, SmoothingParams
from .summation import compensated_sum  # unused here; the benchmark tracer wraps it

_POLE_RADIUS = 1e-6
Span = Tuple[float, float]  # (t_lo, t_hi) of a line evaluation; a point t is (t, t)
_FE_SAFE_RADIUS = 0.25
_K_TERMS = 2
_MIN_T_FOR_FE_CORRECTION = 2.0
# Chebyshev-block kernel: a node t sits within |u| <= spacing/2 of its
# centre, and r = max|u| * max|ln n - lambda| <= _KERNEL_RADIUS.  The
# expansion's rounding grows over the dense sum's by at most
# max_{|z| <= r} sum_k eps_k |J_k(z)|, which is 3.78 at r = 6.
_KERNEL_RADIUS = 6.0
# centres per anchor row, and rows of each evaluator's offset block (see
# SmoothedLineEvaluator._phase_products)
_BLOCK = 8


@dataclass(frozen=True)
class SmoothedEvaluation:
    value: complex
    terms_used: int
    tail_bound: float


@functools.lru_cache(maxsize=1024)
def _truncation_count(K: float, c: float, x: float, X: float, p: float,
                      eps: float) -> Tuple[int, float]:
    """Minimal N with a certified tail bound below eps for the series
    sum_{n>N} K n^{c-x} e^{-(n/X)^p}, via the integral test and an upper
    incomplete-gamma estimate."""
    a = (c - x + 1.0) / p

    def bound(N: float) -> float:
        # integrand must be decreasing at N
        if c > x and N < X * ((c - x) / p) ** (1.0 / p):
            return math.inf
        try:
            w = (N / X) ** p
        except OverflowError:
            raise ValueError(f"smoothing exponent p={p} overflows (N/X)^p "
                             f"at N={N:g}, X={X:g}") from None
        if a > 1.0:
            if w < 2.0 * (a - 1.0) + 2.0:
                return math.inf
            factor, wexp = 2.0, a - 1.0
        elif w == 0.0:
            raise ValueError(f"smoothing exponent p={p} underflows (N/X)^p "
                             f"at N={N:g}, X={X:g}")
        elif a < 0.0:
            # Gamma(a,w) <= e^{-w} min(w^{a-1}, w^a / -a)
            if math.log(w) * (a - 1.0) > math.log(w) * a - math.log(-a):
                factor, wexp = 1.0 / (-a), a
            else:
                factor, wexp = 1.0, a - 1.0
        else:
            factor, wexp = 1.0, a - 1.0
        logb = (math.log(factor * K / p) + (c - x + 1.0) * math.log(X)
                + wexp * math.log(w) - w)
        return math.exp(logb) if logb < 700 else math.inf

    N = 16.0
    while bound(N) >= eps:
        if N >= MAX_BULK:
            raise BudgetError(f"coefficient table of length > {MAX_BULK} exceeds the "
                              f"1e7 cap (truncation rule at X={X}, eps={eps})")
        N = min(N * 1.25 + 8.0, MAX_BULK)
    lo, hi = 8, int(math.ceil(N))
    while lo < hi:
        mid = (lo + hi) // 2
        if bound(mid) < eps:
            hi = mid
        else:
            lo = mid + 1
    return max(8, lo), bound(max(8, lo))


@dataclass(frozen=True, eq=False)
class LinePlan:
    """Every choice of a smoothed evaluation on sigma + it, made by plan_line
    before any table exists: X, (abscissa, length) of each series (the main
    one `terms` long), residue columns x_k = sigma - kp and const_k = (-1)^k
    X^{-kp}/k! omega Q^{1-2x_k}, `width`, `tail`, `poles` (order <= 2), `span`."""

    X: float
    terms: int
    tail: float
    series: Tuple[Tuple[float, int], ...]
    x_k: np.ndarray
    const_k: np.ndarray
    poles: Tuple[PoleData, ...]
    width: int
    lam: float
    spacing: float
    span: Optional[Span]

    def phase_work(self) -> float:
        """Phase entries (SmoothedLineEvaluator.phase_evals) formed on nodes
        covering the span: `width` per centre (`spacing` apart), per anchor row
        (one per _BLOCK centres) and per offset-block row, each formed once."""
        centres = (self.span[1] - self.span[0]) / self.spacing + 1.0
        return self.width * (centres + centres / _BLOCK + 1.0 + _BLOCK)

    def applied(self, t: np.ndarray) -> np.ndarray:
        """Where each residue is applied: |t| >= 2 with the reflected point
        1 - s + kp at least 0.25 from every conjugated pole."""
        reflected = 1.0 - self.x_k - 1j * t
        applied = np.abs(t) >= _MIN_T_FOR_FE_CORRECTION
        for pole in self.poles:
            applied = applied & (np.abs(reflected - np.conj(pole.location)) >= _FE_SAFE_RADIUS)
        return applied


def plan_line(L: LSeriesInstance, sp: SmoothingParams, sigma: float,
              span: Optional[Span] = None, T: Optional[float] = None) -> LinePlan:
    """The plan of a smoothed evaluation of L on sigma + i span.  X is sp.cutoff(T, d)
    given a scale T, else sp.X, else max(1e3, 10 (|t|/2pi)^d) at the span's largest
    |t|.  Each series ends at the smallest N whose certified tail is below its eps
    (_truncation_count); residue k <= _K_TERMS is taken while X^{-kp}/k! >= 1e-300,
    to the accuracy eps_k that matters at that weight.  A span that is not finite is
    refused and, after every other check, a declared pole within _POLE_RADIUS of it."""
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got sigma={sigma!r}")
    if any(pole.order > 2 for pole in L.fe.poles):
        raise ValueError(f"line evaluations remove the terms of poles of order 1 and 2 "
                         f"only; {L.name!r} declares a pole of higher order")
    if T is not None:
        X = sp.cutoff(T, L.invariants().d)
    elif sp.X is not None:
        X = sp.X
    elif span is not None:
        t = max(span, key=abs)
        try:
            X = max(1e3, 10.0 * (abs(float(t)) / (2.0 * math.pi)) ** L.invariants().d)
        except OverflowError:
            raise ValueError(f"one-t cutoff 10 (|t|/2pi)^d overflows at t = {t}") from None
    else:
        raise ValueError("line evaluator needs an explicit X")
    _check_finite_t(span or ())  # after T's own check; the one-t rule takes nan and inf
    X, p, fe = float(X), sp.p, L.fe
    K, c = L.coefficients.mag_bound
    terms, tail = _truncation_count(K, c, sigma, X, p, sp.epsilon)
    series, x_k, const_k = [(sigma, terms)], [], []
    for k in range(1, _K_TERMS + 1):
        weight = X ** (-k * p) / math.factorial(k)
        if weight < 1e-300:
            break
        eps_k = min(1e-4, max(sp.epsilon, sp.epsilon / (10.0 * weight)))
        x = sigma - k * p
        N_k, _ = _truncation_count(K, c, 1.0 - x, X, p, eps_k)
        tail += eps_k * weight
        series.append((1.0 - x, N_k))
        x_k.append(x)
        const_k.append((-1) ** k * weight * fe.omega * fe.Q ** (1.0 - 2.0 * x))
    pole = near_pole(L, sigma, *span) if span else None
    if pole is not None:
        raise PoleError((f"evaluation point {sigma + 1j * span[0]} within {_POLE_RADIUS} "
                         f"of pole at {pole}") if span[0] == span[1] else
                        f"pole of {L.name!r} on the integration segment")
    width = max(N for _, N in series)
    # lambda centres ln n - lambda on [0, ln width]; an 8-bit spacing keeps
    # j spacing, (j - r) spacing and r spacing exact (_phase_products)
    lam = 0.5 * math.log(width)
    mantissa, exponent = math.frexp(2.0 * _KERNEL_RADIUS / lam)
    spacing = math.ldexp(math.floor(mantissa * 256.0) / 256.0, exponent)
    return LinePlan(X, terms, tail, tuple(series), np.array(x_k)[:, None],
                    np.array(const_k, dtype=complex)[:, None],
                    fe.poles, width, lam, spacing, span)


def _chebyshev_order(r: float) -> int:
    """Smallest K >= 1 whose Jacobi-Anger remainder
    sum_{k>=K} 2 |J_k(z)| <= 2 (r/2)^K/K! / (1 - r/(2K+2)), |z| <= r,
    relative to sum |c_n|, falls below 2^-53."""
    K = 1
    while (r >= 2 * K + 2 or 2.0 * (r / 2.0) ** K / math.factorial(K)
           / (1.0 - r / (2 * K + 2)) > 2.0 ** -53):
        K += 1
    return K


# the Chebyshev order of every multi-point call: a t lies within spacing/2 of
# its centre, and spacing/2 * lambda = _KERNEL_RADIUS
_ORDER = _chebyshev_order(_KERNEL_RADIUS)


def _bessel_table(z: np.ndarray, order: int) -> np.ndarray:
    """J_k(z), k < order, one row per k, by Miller's backward recurrence:
    the ratios rho_k = J_k/J_{k-1} = z/(2k - z rho_{k+1}) are taken from
    rho = 0 twelve orders above `order` down to rho_1, multiplied out from
    J_0 = 1 and normalised by J_0 + 2 sum_k J_2k = 1.  The ratio form needs
    no division by z, so z = 0 gives J_0 = 1 and J_k = 0 for k > 0."""
    top = order + 12
    J = np.empty((top, z.size))
    ratio = np.zeros(z.shape)
    for k in range(top - 1, 0, -1):
        ratio = np.divide(z, 2.0 * k - z * ratio, out=J[k])
    J[0] = 1.0
    for k in range(1, top):
        J[k] *= J[k - 1]
    J /= J[0] + 2.0 * J[2::2].sum(axis=0)
    return J[:order]


def _chebyshev_sum(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k a[k] T_k(x) for real coefficients a of shape (order, ...,
    nodes) and x of shape (nodes,), by the Clenshaw recurrence
    b_k = a_k + 2x b_{k+1} - b_{k+2}, sum = a_0 + x b_1 - b_2.  Complex
    coefficients are summed as their real and imaginary parts, so that
    each product by 2x is real."""
    x2 = 2.0 * x
    b1, b2, step = a[-1].copy(), np.zeros(a.shape[1:]), np.empty(a.shape[1:])
    for k in range(a.shape[0] - 2, 0, -1):
        np.multiply(x2, b1, out=step)
        step += a[k]
        step -= b2
        b1, b2, step = step, b1, b2
    np.multiply(x, b1, out=step)
    step += a[0]
    step -= b2
    return step


#: eps_k (-i)^k, k < _ORDER: the Jacobi-Anger weights of
#: e^{-ixz} = sum_k eps_k (-i)^k J_k(z) T_k(x), eps_0 = 1 and eps_k = 2
_WEIGHTS = np.array([1.0] + [(-2j, -2.0, 2j, 2.0)[(k - 1) % 4] for k in range(1, _ORDER)])


def _check_finite_t(t) -> None:
    if not np.isfinite(t).all():
        t = np.ravel(t)
        bad = t[~np.isfinite(t)][0]
        raise ValueError(f"t must be finite, got t={float(bad)!r}")


def near_pole(L: LSeriesInstance, sigma: float, a: float, b: float) -> Optional[complex]:
    """The first declared pole of L within _POLE_RADIUS of sigma + i[a, b]."""
    for pole in L.fe.poles:
        z = pole.location
        if abs(complex(z.real - sigma, z.imag - min(max(z.imag, a), b))) < _POLE_RADIUS:
            return z


def smoothed_value(L: LSeriesInstance, sigma: float, t: float,
                   sp: SmoothingParams) -> SmoothedEvaluation:
    """Smoothed evaluation of F(sigma + it): the one-point case of
    SmoothedLineEvaluator, planned (and refused, see plan_line) for (t, t).
    Declared pole terms and the leading contour residues are removed, so the
    value approximates F itself rather than the bare smoothed object."""
    line = SmoothedLineEvaluator(L, sp, sigma, span=(t, t))
    value = complex(line.values(np.array([t]))[0])
    return SmoothedEvaluation(value=value, terms_used=line.terms,
                              tail_bound=line.tail)


def fe_cross_check(L: LSeriesInstance, t: float, sp: SmoothingParams) -> float:
    """Relative functional-equation defect on the critical line,

        |Phi(1/2+it) - omega conj(Phi(1/2+it))| / |Phi(1/2+it)|,

    assembled from smoothed values on both sides and the exact gamma-factor
    ratio.  A mis-entered Q, omega, gamma spec, or coefficient stream makes
    this blow up, so it validates preset data end to end."""
    s = complex(0.5, t)
    F = smoothed_value(L, 0.5, t, sp).value
    # on the critical line 1 - conj(s) = s, so Ft(1 - s) is conj(F(s))
    Ft = F.conjugate()
    ratio = complex(gamma_ratio_exact_grid(L.fe.gamma, 0.5, np.array(t)))
    Q = L.fe.Q
    reflected = L.fe.omega * Q ** (1.0 - 2.0 * s) * ratio * Ft
    return abs(F - reflected) / abs(F)


# ---------------------------------------------------------------------------
# Independent zeta oracle: Euler-Maclaurin summation
# ---------------------------------------------------------------------------

_EM_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66,
                 -691.0 / 2730, 7.0 / 6, -3617.0 / 510, 43867.0 / 798,
                 -174611.0 / 330, 854513.0 / 138, -236364091.0 / 2730)
_EM_B26 = 8553103.0 / 6
_EM_MAX_REMAINDER = 1e-14


def reference_zeta(s: complex) -> complex:
    """zeta(s) by Euler-Maclaurin summation: the terms n < N, the integral
    and half-term at N, and the B_2..B_24 corrections, with
    N = max(32, 2|Im s| + 8); ~1e-12 for |Im s| <= 100 and 0 <= Re s <= 3.
    Raises ArithmeticError for Re s < 0, where the sum loses all accuracy to
    cancellation although the remainder bound is small, and wherever the
    remainder bound exceeds 1e-14."""
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta pole at s = 1")
    if s.real < 0.0:
        raise ArithmeticError(f"Euler-Maclaurin sum is inaccurate at Re s < 0, s = {s}")
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
    # With v corrections the remainder is at most |s + 2v + 1| / (Re s + 2v + 1)
    # times the first omitted term (Edwards, Riemann's Zeta Function, 6.4).
    # The bound needs Re s + 2v + 1 > 0.
    v = len(_EM_BERNOULLI)
    omitted = abs(_EM_B26 / math.factorial(2 * v + 2) * poch * npow)
    denom = s.real + 2 * v + 1
    remainder = abs(s + 2 * v + 1) / denom * omitted if denom > 0 else math.inf
    if not remainder <= _EM_MAX_REMAINDER:
        raise ArithmeticError(f"Euler-Maclaurin remainder {remainder:.1e} at s = {s}")
    return total


# ---------------------------------------------------------------------------
# The smoothed evaluator
# ---------------------------------------------------------------------------

# e^{-it ln n} is completely multiplicative in n, so _phase_row takes an
# exponential only at the primes.  The plan holds, for n = 1..size, the
# columns n - 1 of the primes, of spf(n) (the smallest prime factor) and of
# n / spf(n).  It is grown to the longest width asked for and published by
# one assignment (a concurrent call at worst builds it again); a shorter width
# takes prefix slices.  spf is unique, so an entry's bits do not depend on the
# widths asked for before.  One plan serves every evaluator, so its memory,
# about 16 bytes per n, is paid once.
_sieve = (np.empty(0, dtype=np.intp),) * 3


def _sieve_plan(width: int):
    global _sieve
    plan = _sieve
    if plan[1].size < width:
        spf = np.zeros(width + 1, dtype=np.intp)
        for p in range(2, math.isqrt(width) + 1):
            if not spf[p]:
                multiples = spf[p * p::p]
                multiples[multiples == 0] = p
        n = np.arange(width + 1)
        prime = spf == 0
        spf[prime] = n[prime]
        _sieve = plan = (np.flatnonzero(prime[2:]) + 1, spf[1:] - 1,
                         n[1:] // spf[1:] - 1)
    primes, spf, cofactor = plan
    return primes[:np.searchsorted(primes, width)], spf[:width], cofactor[:width]


def _phase_row(t: float, lnn: np.ndarray) -> np.ndarray:
    """e^{-it ln n}, n = 1..lnn.size.  Cosine and sine of t ln p are taken
    at the primes p only; then each dyadic block [M, 2M) of n is formed in
    one step as the product of the entries at spf(n) and n / spf(n).  For a
    composite both lie below M; a prime takes its own entry times the 1 at
    n = 1, which is exact."""
    width = lnn.size
    primes, spf, cofactor = _sieve_plan(width)
    row = np.empty(width, dtype=complex)
    arg = lnn[primes] * -t
    at_primes = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=at_primes.real)
    np.sin(arg, out=at_primes.imag)
    row[primes] = at_primes
    row[0] = 1.0
    M = 2
    while M <= width:
        block = slice(M - 1, min(2 * M, width + 1) - 1)
        np.multiply(row[spf[block]], row[cofactor[block]], out=row[block])
        M *= 2
    return row


class SmoothedLineEvaluator:
    """F(sigma + it) on many t at once with a fixed cutoff X, sharing
    precomputed tables.

    The evaluator carries out `plan` (plan_line, from sp, sigma and the
    caller's span or T) and decides nothing: the plan fixes X, the series
    lengths (`terms` for the main one), `tail`, and which contour residues
    (-1)^k/k! F(s - kp) X^{-kp} are removed, each through the functional
    equation from the conjugated series at 1 - s + kp, and where, and the
    pole terms, one per `plan.poles`.  The constructor builds the tables.

    `values` sums a single t directly and several t by Chebyshev blocks:
    centres at the multiples of the plan's `spacing`, so that
    |t - m| |ln n - lambda| <= 6, and the smallest order K (29) whose
    Jacobi-Anger remainder is below 2^-53.  Each centre's sums are formed once and kept
    for the evaluator's lifetime, so values do not depend on call history; the
    corrections take log Gamma and psi at every t.  `width` is the longest
    series, and `phase_evals` counts the phase entries formed so far (an
    exponential at each prime n, one product at each composite, or one
    anchor-times-offset product): `width` per single t summed, per centre
    formed and per anchor row, and `_BLOCK * width` for the offset block;
    the plan's `phase_work` predicts it for nodes that cover its span.
    """

    def __init__(self, L: LSeriesInstance, sp: SmoothingParams,
                 sigma: float = 0.5, *, span: Optional[Span] = None,
                 T: Optional[float] = None):
        self.plan = plan = plan_line(L, sp, sigma, span, T)
        self.L, self.sp, self.sigma, self.X = L, sp, sigma, plan.X
        self.terms, self.tail, self.width, self.spacing = (
            plan.terms, plan.tail, plan.width, plan.spacing)
        table = L.coefficients.bulk(plan.width).values
        n = np.arange(1, plan.width + 1, dtype=np.float64)
        self._lnn = np.log(n)
        self.phase_evals = 0
        damp = (n / plan.X) ** sp.p
        # Residue series are kept with unconjugated coefficients: the series
        # sum conj(a_n) w_n n^{-(1-x)+it} is the conjugate of
        # sum a_n w_n n^{-(1-x)-it}, so every series takes a prefix of one
        # phase block e^{-im ln n}.
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            self._coefs = [table[:N] * np.exp(-damp[:N] - x * self._lnn[:N])
                           for x, N in plan.series]
        for (x, _), coefs in zip(plan.series, self._coefs):
            bad = np.flatnonzero(~np.isfinite(coefs))
            if bad.size:
                raise ValueError(
                    f"weighted coefficients a_n e^(-(n/X)^p) n^(-sigma) at "
                    f"sigma={x!r} are not finite, first at n={bad[0] + 1}")
        # (sorted centre indices, their per-centre sums)
        self._cache = (np.empty(0), np.empty((_ORDER, len(plan.series), 2, 0)))

    def values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        _check_finite_t(t)
        sums = self._series_sums(t)
        return sums[0] - self._corrections(t, np.conj(sums[1:]))

    def _tables(self, index: np.ndarray):
        """The cached per-centre sums (see _form_sums), after forming those
        of the centres in `index` not seen before, and the column of each
        index in them.

        A centre's sums do not depend on the centres formed with it, so a
        value never depends on which call formed them.  The extended cache
        is published by one assignment: a concurrent call sees it before or
        after, and at worst forms a centre again."""
        known, S = self._cache
        wanted = np.setdiff1d(index, known)
        if wanted.size:
            known = np.concatenate([known, wanted])
            S = np.concatenate([S, self._form_sums(wanted)], axis=-1)
            order_by = np.argsort(known, kind="stable")
            known, S = known[order_by], S[..., order_by]
            self._cache = (known, S)
        return S, np.searchsorted(known, index)

    @functools.cached_property
    def _moments(self):
        """Each series' moment tables: for the real and the imaginary part
        of c_n, when it is not all zero, its unit (1 or i) and the real
        (order, terms) table Re or Im c_n J_k((ln n - lambda) spacing/2),
        k < _ORDER (_bessel_table).  A real c_n (a float64 table) has no
        imaginary part to look at."""
        bessel = _bessel_table((self._lnn - self.plan.lam) * (0.5 * self.spacing), _ORDER)

        def parts(coef):
            if np.iscomplexobj(coef):
                return (1.0, coef.real), (1j, coef.imag)
            return ((1.0, coef),)

        return [[(unit, part * bessel[:, :coef.size])
                 for unit, part in parts(coef) if part.any()]
                for coef in self._coefs]

    @functools.cached_property
    def _offsets(self):
        """The offset block e^{-ir spacing ln n}, r < _BLOCK, one row per r."""
        block = np.stack([_phase_row(r * self.spacing, self._lnn) for r in range(_BLOCK)])
        self.phase_evals += block.size
        return block

    def _phase_products(self, index: np.ndarray):
        """(c, e^{-i index[c] spacing ln n}) for every c, in one row buffer
        that the next item overwrites.  The row of j = _BLOCK J + r,
        0 <= r < _BLOCK, is the anchor row e^{-i _BLOCK J spacing ln n}
        (_phase_row, one per J) times row r of the offset block.  The
        spacing has 8 significant bits, so j spacing, _BLOCK J spacing and
        r spacing are exact and the row depends on j alone."""
        offsets, width = self._offsets, self._lnn.size
        group = np.floor(index / _BLOCK)
        r = (index - group * _BLOCK).astype(np.intp)
        row = np.empty(width, dtype=complex)
        for J in np.unique(group):
            anchor = _phase_row(J * _BLOCK * self.spacing, self._lnn)
            centres = np.flatnonzero(group == J)
            self.phase_evals += width * (1 + centres.size)
            for c in centres:
                yield c, np.multiply(anchor, offsets[r[c]], out=row)

    def _form_sums(self, index: np.ndarray):
        """eps_k (-i)^k C_k(m), k < _ORDER, of every series at the centres
        m = j spacing, j in `index`, as one real (order, series, re/im,
        centres) array (see _series_sums).  Each centre's phase row
        (_phase_products) is copied to a (2, terms) real array, whose
        product with the transpose of each real moment table gives the real
        and imaginary parts of C_k per part of c_n; C = C_re + i C_im.  The
        products are taken one centre at a time, so that a centre's C_k do
        not depend on the centres formed with it."""
        width = self._lnn.size
        # per series and part of c_n, each centre's (2, order) real product;
        # in this (2, terms) @ (terms, order) form the bits do not depend on
        # the BLAS thread count (measured up to 611,016 terms)
        products = [[np.empty((index.size, 2, _ORDER)) for _ in tables]
                    for tables in self._moments]
        planar = np.empty((2, width))
        for c, row in self._phase_products(index):
            np.copyto(planar, row.view(np.float64).reshape(width, 2).T)
            for tables, out in zip(self._moments, products):
                for (_, table), part in zip(tables, out):
                    np.matmul(planar[:, :table.shape[1]], table.T, out=part[c])
        C = np.zeros((_ORDER, len(self._moments), index.size), dtype=complex)
        for i, (tables, out) in enumerate(zip(self._moments, products)):
            for (unit, _), part in zip(tables, out):
                C[:, i] += unit * (part[:, 0] + 1j * part[:, 1]).T
        C *= _WEIGHTS[:, None, None]
        return np.stack([C.real, C.imag], axis=2)

    def _series_sums(self, t: np.ndarray) -> np.ndarray:
        """Every series sum_n c_n e^{-it ln n} at every t, one row per
        series.  A lone t is its own centre: one phase row (_phase_row),
        summed by numpy in an order that does not depend on the BLAS thread
        count, and not cached.  Otherwise by Chebyshev blocks: with
        m = rint(t / spacing) spacing the centre of t, u = t - m and
        x = 2u / spacing in [-1, 1], the Jacobi-Anger expansion of
        e^{-iu(ln n - lambda)} gives

            sum_n c_n e^{-it ln n}
                = e^{-iu lambda} sum_{k<K} eps_k (-i)^k C_k(m) T_k(x),
            C_k(m) = sum_n c_n J_k((ln n - lambda) spacing/2) e^{-im ln n},

        with eps_0 = 1, eps_k = 2 and T_k the Chebyshev polynomials.  The
        weighted C_k of each centre are formed once per evaluator
        (_form_sums) and kept; each call pays only the Clenshaw recurrence
        b_k = a_k + 2x b_{k+1} - b_{k+2} at its nodes, in real arithmetic
        on the (re, im) pairs."""
        if t.size == 1:
            row = _phase_row(t[0], self._lnn)
            self.phase_evals += row.size
            return np.array([[np.sum(row[:coef.size] * coef)] for coef in self._coefs])
        index = np.rint(t / self.spacing)
        C, column = self._tables(index)
        u = t - index * self.spacing
        sums = _chebyshev_sum(C[..., column], (2.0 / self.spacing) * u)
        return np.exp(-1j * self.plan.lam * u) * (sums[:, 0] + 1j * sums[:, 1])

    def _corrections(self, t: np.ndarray, ft: np.ndarray) -> np.ndarray:
        """Pole terms plus contour residues at each t; ft holds the
        conjugated residue series.  log Gamma(w/p) and, for an order-2 pole,
        psi(w/p) with w = pole - s, and each residue's signed log Gamma sum
        are taken at each t itself: their kernels reduce each argument on
        its own, so a t's corrections do not depend on the t computed with
        it.  A residue that is not applied at a t takes the placeholder
        argument 1."""
        p, lnX, fe, poles = self.sp.p, math.log(self.X), self.L.fe, self.plan.poles
        w0 = np.array([pole.location for pole in poles], dtype=complex)[:, None] - (
            self.sigma + 1j * t)
        w = w0 / p
        applied = self.plan.applied(t)
        ratio_args, signs = _ratio_args(fe.gamma, self.plan.x_k, t)
        ratio_args = np.where(applied, ratio_args, 1.0)
        _check_poles(w)
        _check_poles(ratio_args)
        g = np.exp(_log_gamma_vec(w) + w0 * lnX) / p
        corr = np.zeros(t.shape, dtype=complex)
        for pole, wj, gj in zip(poles, w, g):
            if pole.order == 1:
                corr += pole.leading[0] * gj
            else:
                corr += (pole.leading[0] * gj * (_digamma_vec(wj) / p + lnX)
                         + pole.leading[1] * gj)

        log_ratio = np.sum(signs * _log_gamma_vec(ratio_args), axis=0)
        resid = self.plan.const_k * np.exp(log_ratio - 2j * t * math.log(fe.Q)) * ft
        return corr + np.sum(np.where(applied, resid, 0.0), axis=0)
