"""Smoothed evaluation of F(s), an independent zeta oracle, and the
functional-equation cross-check.

The smoothed series sum_{n<=N*} a_n e^{-(n/X)^p} n^{-s} converges everywhere;
what it computes differs from F(s) by (i) one term per declared pole of F and
(ii) a rapidly decreasing series of contour residues carrying powers X^{-kp}.
SmoothedLineEvaluator is the one implementation of the series and of both
corrections, for any abscissa sigma and many t at once: it removes the pole
terms (from the declared Laurent data) and the k = 1, 2 residues (through the
functional equation).  smoothed_value is its one-point case.

`tail_bound` certifies only the truncation of each series.  It does not
cover the contour remainder past k = 2, which can be far larger: at
sigma = 1/2, zeta-scaled at the default X is off by 1.0e-7 at t = 30 and
4.5e-5 at t = 50, and zeta-sq at X = 1e3 by 9.6 at t = 300, each with
tail_bound 1.1e-12 (ROADMAP open item 2).

The series are summed by Taylor blocks (Odlyzko-Schoenhage, Trans. AMS 309,
1988; Hiary, Ann. of Math. 174, 2011): each t is snapped to the nearest
centre m on the grid of multiples of the evaluator's `spacing`, one phase
row e^{-im ln n} is formed per centre, and the remaining factor
e^{-i(t-m) ln n} is a short Taylor series in t - m whose coefficients are
BLAS products of that row with real moment tables Re c_n (ln n - lambda)^k
and Im c_n (ln n - lambda)^k (one table when c_n is real, as in every
preset).  The centres form an arithmetic progression: the row of centre
j = 32 J + r is an anchor row e^{-i 32 J spacing ln n} times row r of an
offset block formed once per evaluator, with the spacing rounded down to 8
significant bits so that both arguments are exact.  The phase is completely
multiplicative in n, so each anchor row and the offset block take an
exponential at each prime n and one product at each composite (the sieve
behind Odlyzko-Schoenhage evaluation of zeta).  The evaluator keeps every
centre's products, so a later call on the same centres (the next quadrature
level) pays only Horner steps, and a t's value does not depend on the calls
made before.  The corrections take log Gamma and psi at each t itself: with
one-period quadrature panels there are about as many nodes as centres.  A
single t is summed directly: one phase row and one numpy sum per series, in a
fixed order that does not depend on the BLAS thread count.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import BudgetError, PoleError
from .gammafn import (_check_poles, _digamma_vec, _log_gamma_vec, _ratio_args,
                      gamma_ratio_exact_grid)
from .gammafn import log_gamma  # unused here; the benchmark tracer wraps it
from .model import LSeriesInstance, SmoothingParams
from .summation import compensated_sum  # unused here; the benchmark tracer wraps it

_POLE_RADIUS = 1e-6
_FE_SAFE_RADIUS = 0.25
_K_TERMS = 2
_MIN_T_FOR_FE_CORRECTION = 2.0
# Taylor-block kernel: a node t sits within |u| <= spacing/2 of its centre,
# and r = max|u| * max|ln n - lambda| <= _TAYLOR_RADIUS, so rounding grows by
# at most e^r over the dense sum.
_TAYLOR_RADIUS = 2.0
# centres per anchor row, and rows of each evaluator's offset block (see
# SmoothedLineEvaluator._phase_products)
_BLOCK = 32


@dataclass(frozen=True)
class SmoothedEvaluation:
    value: complex
    terms_used: int
    tail_bound: float


def default_cutoff(t: float, d: float) -> float:
    """Standalone-evaluation cutoff: max(1e3, 10 (t/2pi)^d)."""
    return max(1e3, 10.0 * (abs(t) / (2.0 * math.pi)) ** d)


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


def _taylor_order(r: float) -> int:
    """Smallest K >= 1 whose certified Taylor remainder r^K/K! e^r, relative
    to sum |c_n|, falls below 2^-53."""
    K = 1
    while r ** K / math.factorial(K) * math.exp(r) >= 2.0 ** -53:
        K += 1
    return K


# the Taylor order of every multi-point call: a t lies within spacing/2 of its
# centre, and spacing/2 * lambda = _TAYLOR_RADIUS
_ORDER = _taylor_order(_TAYLOR_RADIUS)


def _check_pole_proximity(L: LSeriesInstance, s: complex) -> None:
    for pole in L.fe.poles:
        if abs(s - pole.location) < _POLE_RADIUS:
            raise PoleError(f"evaluation point {s} within {_POLE_RADIUS} of pole "
                            f"at {pole.location}")


def smoothed_value(L: LSeriesInstance, z: complex, t: float,
                   sp: SmoothingParams) -> SmoothedEvaluation:
    """Smoothed evaluation of F(z + it): the one-point case of
    SmoothedLineEvaluator at sigma = Re(z + it), with X = sp.X or, when that
    is unset, default_cutoff(t, d).  Declared pole terms and the leading
    contour residues are removed, so the value approximates F itself rather
    than the bare smoothed object.
    """
    s = complex(z) + 1j * t
    _check_pole_proximity(L, s)
    if sp.X is None:
        sp = sp.with_X(default_cutoff(t, L.invariants().d))
    line = SmoothedLineEvaluator(L, sp, sigma=s.real)
    value = complex(line.values(np.array([s.imag]))[0])
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

# e^{-it ln n} is completely multiplicative in n, so _phase_rows takes an
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


def _phase_rows(t: np.ndarray, lnn: np.ndarray) -> np.ndarray:
    """e^{-it ln n}, n = 1..lnn.size, one row per t.  Cosine and sine of
    t ln p are taken at the primes p only; then each dyadic block [M, 2M)
    of n is formed in one step as the product of the entries at spf(n) and
    n / spf(n).  For a composite both lie below M; a prime takes its own
    entry times the 1 at n = 1, which is exact.  The block is built with
    one row per n, so each gather moves whole rows, and is returned with
    one contiguous row per t."""
    width = lnn.size
    primes, spf, cofactor = _sieve_plan(width)
    by_n = np.empty((width, t.size), dtype=complex)
    arg = np.multiply.outer(lnn[primes], -t)
    at_primes = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=at_primes.real)
    np.sin(arg, out=at_primes.imag)
    by_n[primes] = at_primes
    by_n[0] = 1.0
    # one t: gather from the 1-d view, which numpy does about twice as fast
    entries = by_n[:, 0] if t.size == 1 else by_n
    M = 2
    while M <= width:
        block = slice(M - 1, min(2 * M, width + 1) - 1)
        np.multiply(entries[spf[block]], entries[cofactor[block]],
                    out=entries[block])
        M *= 2
    return np.ascontiguousarray(by_n.T)


class SmoothedLineEvaluator:
    """F(sigma + it) on many t at once with a fixed cutoff X, sharing
    precomputed tables.

    The weighted series is truncated at the smallest N (`terms`) whose
    certified tail bound drops below sp.epsilon.  Every declared pole term
    is removed, and so are the contour residues (-1)^k/k! F(s - kp) X^{-kp},
    k = 1, 2, each computed through the functional equation from the
    conjugated series at 1 - s + kp.  A residue is applied at those t with
    |t| >= 2 whose reflected point 1 - s + kp keeps 0.25 away from every
    conjugated pole.  `tail` bounds the truncation error of the series plus
    that of every residue series.

    `values` sums a single t directly and several t by Taylor blocks:
    centres at the multiples of `spacing`, so that |t - m| |ln n - lambda|
    <= 2 with lambda = ln(width)/2 (the spacing 4/lambda rounded down to 8
    significant bits), and the smallest order K whose certified remainder
    is below 2^-53.  Each centre's sums are formed once and kept for the
    evaluator's lifetime, so values do not depend on call history; the
    corrections take log Gamma and psi at every t.  `width` is the longest
    series, and `phase_evals` counts the phase entries formed so far (an
    exponential at each prime n, one product at each composite, or one
    anchor-times-offset product): `width` per single t summed, per centre
    formed and per anchor row, and `_BLOCK * width` for the offset block.
    """

    def __init__(self, L: LSeriesInstance, sp: SmoothingParams,
                 sigma: float = 0.5):
        if sp.X is None:
            raise ValueError("line evaluator needs an explicit X")
        self.L = L
        self.sp = sp
        self.sigma = sigma
        self.X = X = sp.X
        K, c = L.coefficients.mag_bound
        self.terms, self.tail = _truncation_count(K, c, sigma, X, sp.p, sp.epsilon)
        # (abscissa, length) of the main series, then of each residue series
        series = [(sigma, self.terms)]
        x_k, const_k = [], []
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
        self.width = width = max(N for _, N in series)
        table = L.coefficients.bulk(width).values
        n = np.arange(1, width + 1, dtype=np.float64)
        self._lnn = np.log(n)
        # Taylor variable ln n - lambda: lambda centres it on [0, ln width],
        # so |ln n - lambda| <= lambda
        self._lam = 0.5 * math.log(width)
        # rounded down to 8 significant bits, so that a centre j spacing and
        # the parts (j - r) spacing and r spacing of its phase row are exact
        # (_phase_products)
        mantissa, exponent = math.frexp(2.0 * _TAYLOR_RADIUS / self._lam)
        self.spacing = math.ldexp(math.floor(mantissa * 256.0) / 256.0, exponent)
        self.phase_evals = 0
        self._pole_locations = np.array(
            [pole.location for pole in self._poles], dtype=complex)[:, None]
        damp = (n / X) ** sp.p
        # Residue series are kept with unconjugated coefficients: the series
        # sum conj(a_n) w_n n^{-(1-x)+it} is the conjugate of
        # sum a_n w_n n^{-(1-x)-it}, so every series takes a prefix of one
        # phase block e^{-im ln n}.
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            self._coefs = [table[:N] * np.exp(-damp[:N] - x * self._lnn[:N])
                           for x, N in series]
        for (x, _), coefs in zip(series, self._coefs):
            bad = np.flatnonzero(~np.isfinite(coefs))
            if bad.size:
                raise ValueError(
                    f"weighted coefficients a_n e^(-(n/X)^p) n^(-sigma) at "
                    f"sigma={x!r} are not finite, first at n={bad[0] + 1}")
        # (sorted centre indices, their per-centre sums)
        self._cache = (np.empty(0), np.empty((_ORDER, len(series), 0), dtype=complex))

    def values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
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
        (order, terms) table Re or Im c_n (ln n - lambda)^k / k!, k < _ORDER."""
        powers = np.vander(self._lnn - self._lam, _ORDER, increasing=True)
        powers /= [float(math.factorial(k)) for k in range(_ORDER)]
        powers = np.ascontiguousarray(powers.T)
        return [[(unit, part * powers[:, :coef.size])
                 for unit, part in ((1.0, coef.real), (1j, coef.imag)) if part.any()]
                for coef in self._coefs]

    @functools.cached_property
    def _offsets(self):
        """The offset block e^{-ir spacing ln n}, r < _BLOCK, one row per r."""
        block = _phase_rows(np.arange(_BLOCK) * self.spacing, self._lnn)
        self.phase_evals += block.size
        return block

    def _phase_products(self, index: np.ndarray):
        """(c, e^{-i index[c] spacing ln n}) for every c, in one row buffer
        that the next item overwrites.  The row of j = _BLOCK J + r,
        0 <= r < _BLOCK, is the anchor row e^{-i _BLOCK J spacing ln n}
        (_phase_rows, one per J) times row r of the offset block.  The
        spacing has 8 significant bits, so j spacing, _BLOCK J spacing and
        r spacing are exact and the row depends on j alone."""
        offsets, width = self._offsets, self._lnn.size
        group = np.floor(index / _BLOCK)
        r = (index - group * _BLOCK).astype(np.intp)
        row = np.empty(width, dtype=complex)
        for J in np.unique(group):
            anchor = _phase_rows(np.array([J * _BLOCK * self.spacing]), self._lnn)[0]
            centres = np.flatnonzero(group == J)
            self.phase_evals += width * (1 + centres.size)
            for c in centres:
                yield c, np.multiply(anchor, offsets[r[c]], out=row)

    def _form_sums(self, index: np.ndarray):
        """S_k(m) / k!, k < _ORDER, of every series at the centres
        m = j spacing, j in `index`, as one (order, series, centres) array.
        Each centre's phase row (_phase_products) is copied to a (2, terms)
        real array, whose product with the transpose of each real moment
        table gives the real and imaginary parts of S_k per part of c_n;
        S = S_re + i S_im.  The products are taken one centre at a time, so
        that a centre's S_k do not depend on the centres formed with it."""
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
        S = np.zeros((_ORDER, len(self._moments), index.size), dtype=complex)
        for i, (tables, out) in enumerate(zip(self._moments, products)):
            for (unit, _), part in zip(tables, out):
                S[:, i] += unit * (part[:, 0] + 1j * part[:, 1]).T
        return S

    def _series_sums(self, t: np.ndarray) -> np.ndarray:
        """Every series sum_n c_n e^{-it ln n} at every t, one row per
        series.  A lone t is its own centre: one phase row (_phase_rows),
        summed by numpy in an order that does not depend on the BLAS thread
        count, and not cached.  Otherwise by Taylor blocks: with
        m = rint(t / spacing) spacing the centre of t and u = t - m,

            sum_n c_n e^{-it ln n} = e^{-iu lambda} sum_{k<K} (-iu)^k S_k(m)/k!,
            S_k(m) = sum_n c_n (ln n - lambda)^k e^{-im ln n}.

        The S_k of each centre are formed once per evaluator (_form_sums)
        and kept; each call pays only the Horner step at its nodes."""
        if t.size == 0:
            return np.empty((len(self._coefs), 0), dtype=complex)
        if t.size == 1:
            phases = _phase_rows(t, self._lnn)
            self.phase_evals += phases.size
            return np.array([np.sum(phases[:, :coef.size] * coef, axis=-1)
                             for coef in self._coefs])
        index = np.rint(t / self.spacing)
        S, column = self._tables(index)
        S = np.take(S, column, axis=2)
        x = -1j * (t - index * self.spacing)
        acc = S[_ORDER - 1]
        for k in range(_ORDER - 2, -1, -1):
            acc *= x
            acc += S[k]
        return np.exp(self._lam * x) * acc

    def _applied(self, t: np.ndarray) -> np.ndarray:
        """Where each residue is applied: |t| >= 2 with the reflected point
        1 - s + kp at least 0.25 from every conjugated pole."""
        reflected = 1.0 - self._x_k - 1j * t
        applied = np.abs(t) >= _MIN_T_FOR_FE_CORRECTION
        for pole in self.L.fe.poles:
            applied = applied & (np.abs(reflected - np.conj(pole.location))
                                 >= _FE_SAFE_RADIUS)
        return applied

    def _corrections(self, t: np.ndarray, ft: np.ndarray) -> np.ndarray:
        """Pole terms plus contour residues at each t; ft holds the
        conjugated residue series.  log Gamma(w/p) and, for an order-2 pole,
        psi(w/p) with w = pole - s, and each residue's signed log Gamma sum
        are taken at each t itself: their kernels reduce each argument on
        its own, so a t's corrections do not depend on the t computed with
        it.  A residue that is not applied at a t takes the placeholder
        argument 1."""
        if t.size == 0:
            return np.zeros(0, dtype=complex)
        p, lnX, fe = self.sp.p, math.log(self.X), self.L.fe
        w0 = self._pole_locations - (self.sigma + 1j * t)
        w = w0 / p
        applied = self._applied(t)
        ratio_args, signs = _ratio_args(fe.gamma, self._x_k, t)
        ratio_args = np.where(applied, ratio_args, 1.0)
        _check_poles(w)
        _check_poles(ratio_args)
        g = np.exp(_log_gamma_vec(w) + w0 * lnX) / p
        corr = np.zeros(t.shape, dtype=complex)
        for pole, wj, gj in zip(self._poles, w, g):
            if pole.order == 1:
                corr += pole.leading[0] * gj
            else:
                corr += (pole.leading[0] * gj * (_digamma_vec(wj) / p + lnX)
                         + pole.leading[1] * gj)

        log_ratio = np.sum(signs * _log_gamma_vec(ratio_args), axis=0)
        resid = self._const_k * np.exp(log_ratio - 2j * t * math.log(fe.Q)) * ft
        return corr + np.sum(np.where(applied, resid, 0.0), axis=0)
