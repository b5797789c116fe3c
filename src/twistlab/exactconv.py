"""Exact integer polynomial multiplication: NTT modulo word-size primes,
recombined by CRT.

Float FFTs cannot produce exact convolutions at the coefficient sizes the
tau generator reaches (~1e30), so products are computed modulo several
NTT-friendly primes below 2^31 (all uint64 arithmetic stays below 2^62)
and reconstructed with Garner's algorithm into Python integers.
"""
from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from .errors import BudgetError

# (prime, primitive root, 2-adic valuation of p-1)
_PRIMES = (
    (2013265921, 31, 27),
    (469762049, 3, 26),
    (167772161, 3, 25),
    (754974721, 11, 24),
    (998244353, 3, 23),
    (1004535809, 3, 21),
)


def _pow_array(base: int, exps: np.ndarray, p: int) -> np.ndarray:
    """base**exps mod p, vectorized binary powering."""
    result = np.ones(exps.shape, dtype=np.uint64)
    factor = base % p
    bits = int(exps.max()).bit_length() if exps.size else 0
    e = exps.astype(np.uint64)
    pu = np.uint64(p)
    for b in range(bits):
        mask = (e >> np.uint64(b)) & np.uint64(1)
        result = np.where(mask == 1, (result * np.uint64(factor)) % pu, result)
        factor = factor * factor % p
    return result


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.uint64)
    rev = np.zeros(n, dtype=np.uint64)
    for b in range(bits):
        rev |= ((idx >> np.uint64(b)) & np.uint64(1)) << np.uint64(bits - 1 - b)
    return rev.astype(np.int64)


def _ntt(a: np.ndarray, p: int, g: int, inverse: bool) -> np.ndarray:
    n = a.shape[0]
    pu = np.uint64(p)
    a = a[_bit_reverse_indices(n)]
    length = 2
    while length <= n:
        half = length // 2
        root = pow(g, (p - 1) // length, p)
        if inverse:
            root = pow(root, p - 2, p)
        w = _pow_array(root, np.arange(half, dtype=np.uint64), p)
        blocks = a.reshape(n // length, length)
        u = blocks[:, :half].copy()
        v = (blocks[:, half:] * w[None, :]) % pu
        blocks[:, :half] = (u + v) % pu
        blocks[:, half:] = (u + pu - v) % pu
        a = blocks.reshape(n)
        length *= 2
    if inverse:
        n_inv = pow(n, p - 2, p)
        a = (a * np.uint64(n_inv)) % pu
    return a


def _conv_mod(a: np.ndarray, b: np.ndarray, size: int, p: int, g: int) -> np.ndarray:
    pu = np.uint64(p)
    fa = np.zeros(size, dtype=np.uint64)
    fb = np.zeros(size, dtype=np.uint64)
    fa[: a.shape[0]] = a % pu
    fb[: b.shape[0]] = b % pu
    Fa = _ntt(fa, p, g, False)
    Fb = _ntt(fb, p, g, False)
    return _ntt((Fa * Fb) % pu, p, g, True)


def conv_exact(a: Sequence[int], b: Sequence[int], out_len: int) -> List[int]:
    """Exact (signed) integer convolution of a and b, first out_len coeffs."""
    a = list(map(int, a[:out_len]))
    b = list(map(int, b[:out_len]))
    if not a or not b:
        return [0] * out_len
    max_a = max(1, max(abs(v) for v in a))
    max_b = max(1, max(abs(v) for v in b))
    # crude coefficient bound: min(len) pairwise products of max magnitude
    bound = 2 * max_a * max_b * min(len(a), len(b))
    if out_len <= 2048:
        return _conv_direct(a, b, out_len)
    size = 1 << (out_len * 2 - 1).bit_length()
    usable = [(p, g) for (p, g, v) in _PRIMES if (1 << v) >= size]
    primes, modulus = [], 1
    for p, g in usable:
        primes.append((p, g))
        modulus *= p
        if modulus > bound:
            break
    if modulus <= bound:
        raise BudgetError(
            f"exact convolution of this size/magnitude exceeds CRT capacity "
            f"(need modulus > {bound:.3e})")
    residues = []
    for p, g in primes:
        ra = np.asarray([v % p for v in a], dtype=np.uint64)
        rb = np.asarray([v % p for v in b], dtype=np.uint64)
        residues.append(_conv_mod(ra, rb, size, p, g)[:out_len])
    return _garner(residues, [p for p, _ in primes])


def _conv_direct(a: List[int], b: List[int], out_len: int) -> List[int]:
    out = [0] * out_len
    for i, ai in enumerate(a):
        if ai:
            top = min(len(b), out_len - i)
            for j in range(top):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def _garner(residues: List[np.ndarray], primes: List[int]) -> List[int]:
    """CRT reconstruction to signed Python ints (symmetric range)."""
    k = len(primes)
    n = len(residues[0])
    prefix_inv = []
    for j in range(1, k):
        m = 1
        for i in range(j):
            m = m * primes[i] % primes[j]
        prefix_inv.append(pow(m, primes[j] - 2, primes[j]))
    out = [0] * n
    M_total = math.prod(primes)
    half = M_total // 2
    for i in range(n):
        x = int(residues[0][i])
        m = primes[0]
        for j in range(1, k):
            pj = primes[j]
            t = (int(residues[j][i]) - x) % pj
            t = t * prefix_inv[j - 1] % pj
            x += m * t
            m *= pj
        if x > half:
            x -= M_total
        out[i] = x
    return out
