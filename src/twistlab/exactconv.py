"""Exact integer polynomial multiplication by Kronecker substitution.

Float FFTs cannot produce exact convolutions at the coefficient sizes the
tau generator reaches (~1e30).  Each input is packed into one decimal
integer, coefficient i in the k-digit slot at 10^{k i}, the two integers
are multiplied once (libmpdec multiplies large operands by a
number-theoretic transform), and the product's slots are read back as the
coefficients.  k is wide enough that no product coefficient reaches
10^k / 2 in absolute value, so the slots never overlap.
"""
from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext
from typing import List, Sequence


def _pack(values: List[int], k: int) -> Decimal:
    """sum_i values[i] 10^{k i} exactly; needs 2 max|v| < 10^k.  Each slot
    is written shifted by max|v|, so the digit string is non-negative, and
    the shift is subtracted from every slot at once."""
    shift = max(map(abs, values))
    digits = "".join([str(v + shift).zfill(k) for v in reversed(values)])
    return Decimal(digits) - Decimal(str(shift).zfill(k) * len(values))


def conv_exact(a: Sequence[int], b: Sequence[int], out_len: int) -> List[int]:
    """Exact (signed) integer convolution of a and b, first out_len coeffs."""
    a = list(map(int, a[:out_len]))
    b = list(map(int, b[:out_len]))
    if not a or not b:
        return [0] * out_len
    bound = (2 * max(1, max(map(abs, a))) * max(1, max(map(abs, b)))
             * min(len(a), len(b)))
    k = len(str(bound))  # smallest k with bound < 10^k
    half = 10 ** k // 2
    slots = len(a) + len(b) - 1
    with localcontext() as ctx:
        ctx.prec = MAX_PREC
        ctx.Emax = MAX_EMAX
        packed = _pack(a, k)
        product = packed * packed if a == b else packed * _pack(b, k)
        # every slot of product + half * sum 10^{k j} lies in [0, 10^k)
        digits = str(product + Decimal(str(half).zfill(k) * slots))
    digits = digits.zfill(k * slots)
    top = len(digits)
    out = [int(digits[i - k : i]) - half
           for i in range(top, top - k * min(out_len, slots), -k)]
    return out + [0] * (out_len - len(out))
