"""Coefficient providers a_n for the preset series, plus combinators.

Every provider is deterministic and total for n >= 1.  Each computes its
coefficients in one place, bulk(N); the pointwise coefficient(n) reads a_n
from bulk(n), and bulk(M) is the first M values of bulk(N) (bulk(0) is
empty).  The Dirichlet convolution splits the divisor pairs d e = n by
Dirichlet's hyperbola method and adds the pairs with d <= e first, then
those with d > e.  Each provider carries a magnitude bound |a_n| <= K n^c
used by the evaluators' truncation rule.

A table is float64 when the series' coefficients are real and complex128
otherwise; real values are never stored as complex.  Constant, periodic and
explicit tables are float64 when every imaginary part is +0, the shift and
scaling combinators keep their base's dtype, and a convolution takes the
common dtype of its factors.  Callers never write into a table: a provider
may return a read-only view of a table it keeps.
"""
from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import BudgetError
from .exactconv import chunks_to_float, chunks_to_ints, conv_chunks, conv_exact

#: the longest coefficient table; the evaluators' truncation rule stops here
MAX_BULK = 10 ** 7


def _finite_table(values, what: str) -> np.ndarray:
    """values as float64 when every imaginary part is +0, else complex; all finite."""
    values = np.asarray(values, dtype=complex)
    if (bad := np.flatnonzero(~np.isfinite(values))).size:
        raise ValueError(f"{what} entry [{bad[0]}] must be finite, got {values[bad[0]]}")
    if values.imag.any() or np.signbit(values.imag).any():
        return values
    return values.real.copy()


def _guard_bulk(N: int) -> int:
    N = int(N)
    if N < 0:
        raise ValueError(f"table length must be >= 0, got {N}")
    if N > MAX_BULK:
        raise BudgetError(f"coefficient table of length {N} exceeds the 1e7 cap")
    return N


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients a_1..a_N; values[k] is a_{k+1}.

    values is float64 for a series with real coefficients and complex128
    otherwise; it may be a view of a provider's cache, so it is not written
    into."""

    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


class CoefficientProvider(abc.ABC):
    """Base class: subclasses generate a_1..a_N in bulk(N), and
    coefficient(n) reads a_n from that table."""

    #: (K, c) with |a_n| <= K n^c, used for truncation majorants.
    mag_bound: Tuple[float, float] = (1.0, 0.0)

    def coefficient(self, n: int) -> complex:
        if n < 1:
            raise ValueError("n must be >= 1")
        return complex(self.bulk(n).values[n - 1])

    @abc.abstractmethod
    def bulk(self, N: int) -> CoefficientTable:
        """The table a_1..a_N."""


class OnesProvider(CoefficientProvider):
    """a_n = 1 (the Riemann zeta coefficients)."""

    mag_bound = (1.0, 0.0)

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        return CoefficientTable(np.ones(N))


class PeriodicProvider(CoefficientProvider):
    """a_n given by a repeating pattern (Dirichlet characters)."""

    def __init__(self, pattern: Sequence[complex]):
        self.pattern = tuple(complex(v) for v in pattern)
        self._period = _finite_table(self.pattern, "periodic pattern")
        self.mag_bound = (max(abs(v) for v in self.pattern) or 1.0, 0.0)

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        reps = -(-N // len(self.pattern))
        return CoefficientTable(np.tile(self._period, reps)[:N].copy())


class TableProvider(CoefficientProvider):
    """Coefficients from an explicit finite table; zero beyond it."""

    def __init__(self, values: Sequence[complex]):
        self._values = _finite_table(list(values), "coefficient table")
        peak = float(np.max(np.abs(self._values), initial=0.0))
        self.mag_bound = (peak or 1.0, 0.0)

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        out = np.zeros(N, dtype=self._values.dtype)
        k = min(N, len(self._values))
        out[:k] = self._values[:k]
        return CoefficientTable(out)


class VerticalShiftProvider(CoefficientProvider):
    """Coefficients of F(s + delta): a_n -> a_n n^{-delta}."""

    def __init__(self, base: CoefficientProvider, delta: float):
        self.base = base
        self.delta = float(delta)
        K, c = base.mag_bound
        self.mag_bound = (K, c - self.delta)

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        base = self.base.bulk(N).values
        n = np.arange(1, N + 1, dtype=float)
        return CoefficientTable(base * n ** (-self.delta))


class ArgumentScaleProvider(CoefficientProvider):
    """Coefficients of F(k s - delta): support moves to k-th powers,
    b_{m^k} = a_m m^{delta}, zero elsewhere."""

    def __init__(self, base: CoefficientProvider, k: int, delta: float):
        if int(k) < 2:
            raise ValueError("scale factor k must be >= 2")
        self.base = base
        self.k = int(k)
        self.delta = float(delta)
        K, c = base.mag_bound
        self.mag_bound = (K, (c + self.delta) / self.k)

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        R = 0  # the largest R with R^k <= N
        while (R + 1) ** self.k <= N:
            R += 1
        base = self.base.bulk(R).values
        out = np.zeros(N, dtype=base.dtype)
        for r in range(1, R + 1):
            out[r ** self.k - 1] = base[r - 1] * float(r) ** self.delta
        return CoefficientTable(out)


class DirichletConvolutionProvider(CoefficientProvider):
    """a_n = sum_{de=n} p1(d) p2(e), split at the hyperbola d = e.

    bulk(N) adds the pairs with d <= e for d ascending, then the pairs
    with d > e for e ascending, each half as one strided numpy add per d
    (or e) up to isqrt(N): 2 sqrt(N) Python steps and O(N log N) numpy
    work.  The split depends only on n, so bulk(M) is the first M values
    of bulk(N).
    """

    def __init__(self, p1: CoefficientProvider, p2: CoefficientProvider):
        self.p1 = p1
        self.p2 = p2
        K1, c1 = p1.mag_bound
        K2, c2 = p2.mag_bound
        self.mag_bound = (2.0 * K1 * K2, max(c1, c2) + 0.5)

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        t1 = self.p1.bulk(N).values
        t2 = self.p2.bulk(N).values
        out = np.zeros(N, dtype=np.result_type(t1, t2))
        r = math.isqrt(N)
        for d in range(1, r + 1):  # n = d e with e >= d
            v = t1[d - 1]
            if v != 0.0:
                out[d * d - 1 :: d] += v * t2[d - 1 : N // d]
        for e in range(1, r + 1):  # n = d e with d > e
            v = t2[e - 1]
            if v != 0.0:
                out[e * (e + 1) - 1 :: e] += v * t1[e : N // e]
        return CoefficientTable(out)


def _eta3_sparse(N: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nonzero terms of prod (1-q^m)^3 = sum (-1)^k (2k+1) q^{k(k+1)/2}."""
    ks, idx, val = 0, [], []
    while ks * (ks + 1) // 2 < N:
        idx.append(ks * (ks + 1) // 2)
        val.append((-1) ** ks * (2 * ks + 1))
        ks += 1
    return np.asarray(idx, dtype=np.int64), np.asarray(val, dtype=np.int64)


def _eta12(N: int) -> np.ndarray:
    """The coefficients of prod (1-q^m)^12 below q^N: an int64 array, or
    an object array of Python ints when one of them needs more than 63 bits.

    The cube-power sparse series, one sparse-sparse convolution to the
    sixth power (int64), then one exact squaring (conv_chunks) whose digit
    chunks chunks_to_ints folds.  The sparse step takes about 5 % of
    tau_integers at N = 65535."""
    idx, val = _eta3_sparse(N)
    eta6 = np.zeros(N, dtype=np.int64)
    pair_idx = idx[:, None] + idx[None, :]
    pair_val = val[:, None] * val[None, :]
    mask = pair_idx < N
    np.add.at(eta6, pair_idx[mask], pair_val[mask])
    return chunks_to_ints(*conv_chunks(eta6, eta6, N))


def tau_integers(N: int) -> List[int]:
    """Exact tau(1..N), index n at position n (position 0 unused).

    eta^12 (_eta12, int64 while every value fits, else Python ints) is
    squared exactly by conv_exact (floating-point FFT on short limbs under
    a proven round-off bound), which returns Python ints; tau(n) is the
    q^{n-1} coefficient of eta^24, so the list is shifted by one index.
    RamanujanTauProvider takes the same squaring's digit chunks to float64
    instead."""
    N = _guard_bulk(N)
    eta12 = _eta12(N)
    return [0] + conv_exact(eta12, eta12, N)


class RamanujanTauProvider(CoefficientProvider):
    """Normalized a_n = tau(n) / n^{11/2}, from the exact tau integers."""

    mag_bound = (2.0, 0.5)  # |a_n| <= d(n) <= 2 sqrt(n)

    def __init__(self):
        # read-only normalized a_1..a_N; an extension is published by one
        # assignment, so a concurrent reader sees either the old table or
        # the new one
        self._table = np.empty(0)

    def bulk(self, N: int) -> CoefficientTable:
        """A read-only view of the cached table.  tau(n) goes from the
        exact squaring's digit chunks to float64 (chunks_to_float rounds as
        float(int) does) without passing through Python ints."""
        N = _guard_bulk(N)
        table = self._table
        if len(table) < N:
            eta12 = _eta12(N)
            n = np.arange(1, N + 1, dtype=float)
            table = chunks_to_float(*conv_chunks(eta12, eta12, N)) / n ** 5.5
            table.flags.writeable = False
            self._table = table
        return CoefficientTable(table[:N])
