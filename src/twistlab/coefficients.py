"""Coefficient providers a_n for the preset series, plus combinators.

Every provider is deterministic and total for n >= 1, and bulk(N) agrees
with pointwise coefficient(n) bit-for-bit (same summation order in the
convolution sweep as in the divisor enumeration).  Each provider carries a
magnitude bound |a_n| <= K n^c used by the evaluators' truncation rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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

    def a(self, n: int) -> complex:
        return complex(self.values[n - 1])


class CoefficientProvider:
    """Base class: deterministic pointwise access plus bulk generation."""

    kind = "abstract"
    #: (K, c) with |a_n| <= K n^c, used for truncation majorants.
    mag_bound: Tuple[float, float] = (1.0, 0.0)

    def coefficient(self, n: int) -> complex:
        raise NotImplementedError

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        return CoefficientTable(np.array(
            [self.coefficient(n) for n in range(1, N + 1)], dtype=complex))


class OnesProvider(CoefficientProvider):
    """a_n = 1 (the Riemann zeta coefficients)."""

    kind = "preset"
    mag_bound = (1.0, 0.0)

    def coefficient(self, n: int) -> complex:
        if n < 1:
            raise ValueError("n must be >= 1")
        return 1.0 + 0.0j

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        return CoefficientTable(np.ones(N, dtype=complex))


class PeriodicProvider(CoefficientProvider):
    """a_n given by a repeating pattern (Dirichlet characters)."""

    kind = "preset"

    def __init__(self, pattern: Sequence[complex]):
        self.pattern = tuple(complex(v) for v in pattern)
        self.mag_bound = (max(abs(v) for v in self.pattern) or 1.0, 0.0)

    def coefficient(self, n: int) -> complex:
        if n < 1:
            raise ValueError("n must be >= 1")
        return self.pattern[(n - 1) % len(self.pattern)]

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        reps = -(-N // len(self.pattern))
        return CoefficientTable(np.tile(np.asarray(self.pattern, dtype=complex),
                                        reps)[:N].copy())


class TableProvider(CoefficientProvider):
    """Coefficients from an explicit finite table; zero beyond it."""

    kind = "custom-table"

    def __init__(self, values: Sequence[complex]):
        self._values = np.asarray(list(values), dtype=complex)
        peak = float(np.max(np.abs(self._values))) if len(self._values) else 0.0
        self.mag_bound = (peak or 1.0, 0.0)

    def coefficient(self, n: int) -> complex:
        if n < 1:
            raise ValueError("n must be >= 1")
        if n <= len(self._values):
            return complex(self._values[n - 1])
        return 0.0 + 0.0j

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        out = np.zeros(N, dtype=complex)
        k = min(N, len(self._values))
        out[:k] = self._values[:k]
        return CoefficientTable(out)


class VerticalShiftProvider(CoefficientProvider):
    """Coefficients of F(s + delta): a_n -> a_n n^{-delta}."""

    kind = "vertical-shift"

    def __init__(self, base: CoefficientProvider, delta: float):
        self.base = base
        self.delta = float(delta)
        K, c = base.mag_bound
        self.mag_bound = (K, c - self.delta)

    def coefficient(self, n: int) -> complex:
        return self.base.coefficient(n) * float(n) ** (-self.delta)

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        base = self.base.bulk(N).values
        n = np.arange(1, N + 1, dtype=float)
        return CoefficientTable(base * n ** (-self.delta))


class ArgumentScaleProvider(CoefficientProvider):
    """Coefficients of F(k s - delta): support moves to k-th powers,
    b_{m^k} = a_m m^{delta}, zero elsewhere."""

    kind = "argument-scaled"

    def __init__(self, base: CoefficientProvider, k: int, delta: float):
        if int(k) < 2:
            raise ValueError("scale factor k must be >= 2")
        self.base = base
        self.k = int(k)
        self.delta = float(delta)
        K, c = base.mag_bound
        self.mag_bound = (K, (c + self.delta) / self.k)

    def _root(self, n: int) -> Optional[int]:
        r = round(n ** (1.0 / self.k))
        for cand in (r - 1, r, r + 1):
            if cand >= 1 and cand ** self.k == n:
                return cand
        return None

    def coefficient(self, n: int) -> complex:
        if n < 1:
            raise ValueError("n must be >= 1")
        r = self._root(n)
        if r is None:
            return 0.0 + 0.0j
        return self.base.coefficient(r) * float(r) ** self.delta

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        out = np.zeros(N, dtype=complex)
        r = 1
        while r ** self.k <= N:
            out[r ** self.k - 1] = self.base.coefficient(r) * float(r) ** self.delta
            r += 1
        return CoefficientTable(out)


class DirichletConvolutionProvider(CoefficientProvider):
    """a_n = sum_{de=n} p1(d) p2(e).

    bulk(N) runs the divisor-lattice sweep in O(N log N); pointwise access
    enumerates divisors in the same ascending-d order, so both routes add
    the identical terms in the identical order.
    """

    kind = "convolution"

    def __init__(self, p1: CoefficientProvider, p2: CoefficientProvider):
        self.p1 = p1
        self.p2 = p2
        K1, c1 = p1.mag_bound
        K2, c2 = p2.mag_bound
        self.mag_bound = (2.0 * K1 * K2, max(c1, c2) + 0.5)

    def coefficient(self, n: int) -> complex:
        if n < 1:
            raise ValueError("n must be >= 1")
        divisors = []
        i = 1
        while i * i <= n:
            if n % i == 0:
                divisors.append(i)
                if i != n // i:
                    divisors.append(n // i)
            i += 1
        total = 0.0 + 0.0j
        for d in sorted(divisors):
            total += self.p1.coefficient(d) * self.p2.coefficient(n // d)
        return total

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        t1 = self.p1.bulk(N).values
        t2 = self.p2.bulk(N).values
        out = np.zeros(N, dtype=complex)
        for d in range(1, N + 1):
            v = t1[d - 1]
            if v != 0.0:
                e_max = N // d
                out[d * np.arange(1, e_max + 1) - 1] += v * t2[:e_max]
        return CoefficientTable(out)


def dirichlet_convolution(p1: CoefficientProvider,
                          p2: CoefficientProvider) -> DirichletConvolutionProvider:
    return DirichletConvolutionProvider(p1, p2)


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
    sixth power, then two exact squarings (NTT + CRT), then the q-shift.
    """
    N = _guard_bulk(N)
    idx, val = _eta3_sparse(N)
    eta6 = np.zeros(N, dtype=np.int64)
    pair_idx = idx[:, None] + idx[None, :]
    pair_val = val[:, None] * val[None, :]
    mask = pair_idx < N
    np.add.at(eta6, pair_idx[mask], pair_val[mask])
    eta12 = conv_exact(eta6.tolist(), eta6.tolist(), N)
    eta24 = conv_exact(eta12, eta12, N)
    return [0] + eta24  # tau(n) is the q^{n-1} coefficient: shift by one index


class RamanujanTauProvider(CoefficientProvider):
    """Normalized a_n = tau(n) / n^{11/2}; integer tau table kept exact."""

    kind = "preset"
    mag_bound = (2.0, 0.5)  # |a_n| <= d(n) <= 2 sqrt(n)

    def __init__(self):
        # (exact tau(0..N), normalized a_1..a_N), replaced as one object so
        # that a concurrent reader never pairs a new tau list with a stale
        # normalized table
        self._table: Tuple[List[int], np.ndarray] = ([0], np.empty(0))

    def _ensure(self, N: int) -> Tuple[List[int], np.ndarray]:
        table = self._table
        if len(table[0]) - 1 < N:
            tau = tau_integers(N)
            n = np.arange(1, N + 1, dtype=float)
            table = (tau, np.asarray([float(t) for t in tau[1:]]) / n ** 5.5)
            self._table = table
        return table

    def tau_int(self, n: int) -> int:
        return self._ensure(n)[0][n]

    def coefficient(self, n: int) -> complex:
        if n < 1:
            raise ValueError("n must be >= 1")
        return complex(self._ensure(n)[1][n - 1])

    def bulk(self, N: int) -> CoefficientTable:
        N = _guard_bulk(N)
        return CoefficientTable(self._ensure(N)[1][:N].astype(complex))


def ramanujan_tau_table(N: int) -> CoefficientTable:
    """Normalized tau table a_n = tau(n)/n^{11/2} for n <= N."""
    return RamanujanTauProvider().bulk(N)


def coefficient(provider: CoefficientProvider, n: int) -> complex:
    return provider.coefficient(n)


def bulk(provider: CoefficientProvider, N: int) -> CoefficientTable:
    return provider.bulk(N)
