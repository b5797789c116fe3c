"""Coefficient providers a_n for the preset series, plus combinators.

Every provider is deterministic and total for n >= 1.  Each computes its
coefficients in one place, bulk(N); the pointwise coefficient(n) reads a_n
from bulk(n), and bulk(M) is the first M values of bulk(N).  The Dirichlet
convolution splits the divisor pairs d e = n by Dirichlet's hyperbola method
and adds the pairs with d <= e first, then those with d > e.  Each provider
carries a magnitude bound |a_n| <= K n^c used by the evaluators' truncation
rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import BudgetError
from .exactconv import conv_exact

_MAX_BULK = 10 ** 7


def _guard_bulk(N: int) -> int:
    N = int(N)
    if N < 1:
        raise ValueError("table length must be >= 1")
    if N > _MAX_BULK:
        raise BudgetError(f"coefficient table of length {N} exceeds the 1e7 cap")
    return N


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients a_1..a_N; values[k] is a_{k+1}."""

    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


class CoefficientProvider:
    """Base class: subclasses generate a_1..a_N in bulk(N), and
    coefficient(n) reads a_n from that table."""

    #: (K, c) with |a_n| <= K n^c, used for truncation majorants.
    mag_bound: Tuple[float, float] = (1.0, 0.0)

    def coefficient(self, n: int) -> complex:
        if n < 1:
            raise ValueError("n must be >= 1")
        return complex(self.bulk(n).values[n - 1])

    def bulk(self, N: int) -> CoefficientTable:
        raise NotImplementedError


class OnesProvider(CoefficientProvider):
    """a_n = 1 (the Riemann zeta coefficients)."""

    mag_bound = (1.0, 0.0)

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        return CoefficientTable(np.ones(N, dtype=complex))


class PeriodicProvider(CoefficientProvider):
    """a_n given by a repeating pattern (Dirichlet characters)."""

    def __init__(self, pattern: Sequence[complex]):
        self.pattern = tuple(complex(v) for v in pattern)
        self.mag_bound = (max(abs(v) for v in self.pattern) or 1.0, 0.0)

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        reps = -(-N // len(self.pattern))
        return CoefficientTable(np.tile(np.asarray(self.pattern, dtype=complex),
                                        reps)[:N].copy())


class TableProvider(CoefficientProvider):
    """Coefficients from an explicit finite table; zero beyond it."""

    def __init__(self, values: Sequence[complex]):
        self._values = np.asarray(list(values), dtype=complex)
        peak = float(np.max(np.abs(self._values))) if len(self._values) else 0.0
        self.mag_bound = (peak or 1.0, 0.0)

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        out = np.zeros(N, dtype=complex)
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
        R = 1  # the largest R with R^k <= N
        while (R + 1) ** self.k <= N:
            R += 1
        base = self.base.bulk(R).values
        out = np.zeros(N, dtype=complex)
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
        out = np.zeros(N, dtype=complex)
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


def tau_integers(N: int) -> List[int]:
    """Exact tau(1..N), index n at position n (position 0 unused).

    Pipeline: cube-power sparse series, one sparse-sparse convolution to the
    sixth power (int64), then two exact squarings (conv_exact, by
    floating-point FFT on short limbs under a proven round-off bound), then
    the q-shift.  eta^6 goes to conv_exact as an int64 array, and eta^12 as
    the list conv_exact returns, which it reads back as int64 while every
    value fits and as Python ints past 2^63.  The sparse step takes about
    5 % of the call at N = 65535.
    """
    N = _guard_bulk(N)
    idx, val = _eta3_sparse(N)
    eta6 = np.zeros(N, dtype=np.int64)
    pair_idx = idx[:, None] + idx[None, :]
    pair_val = val[:, None] * val[None, :]
    mask = pair_idx < N
    np.add.at(eta6, pair_idx[mask], pair_val[mask])
    eta12 = conv_exact(eta6, eta6, N)
    eta24 = conv_exact(eta12, eta12, N)
    return [0] + eta24  # tau(n) is the q^{n-1} coefficient: shift by one index


class RamanujanTauProvider(CoefficientProvider):
    """Normalized a_n = tau(n) / n^{11/2}, from the exact tau integers."""

    mag_bound = (2.0, 0.5)  # |a_n| <= d(n) <= 2 sqrt(n)

    def __init__(self):
        # normalized a_1..a_N; an extension is published by one assignment,
        # so a concurrent reader sees either the old table or the new one
        self._table = np.empty(0)

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        table = self._table
        if len(table) < N:
            tau = tau_integers(N)
            n = np.arange(1, N + 1, dtype=float)
            table = np.fromiter(tau[1:], dtype=np.float64, count=N) / n ** 5.5
            self._table = table
        return CoefficientTable(table[:N].astype(complex))
