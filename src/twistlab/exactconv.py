"""Exact integer polynomial multiplication by floating-point FFT on short limbs.

Each input is split into L balanced signed limbs of B bits (|limb| <= 2^{B-1},
v = sum_j limb_j 2^{B j}).  Every limb series is transformed once with
numpy's rfft at M, the next power of two >= len(a) + len(b) - 1, so the
cyclic product has no wrap-around.  For each limb degree s the spectral
products with j + l = s are summed in place and one irfft gives
sum_{j+l=s} a_j * b_l; those are integers of magnitude at most
L min(len a, len b) 4^{B-1}, and rint recovers them when the FFT error is
below 1/2.  The degrees are then folded, with a carry, into B-bit digits
packed into int64 chunks.

That exact core, conv_chunks, returns the chunks: value = sum_q chunk_q 2^{q C},
where the chunk width C (42 to 62 bits) is a whole number of digits; every
chunk but the top one holds an unsigned C-bit digit group, and the top one
is signed.  Two finishers read them: chunks_to_ints folds them into the
exact values, an int64 array while every value fits and Python ints
otherwise (conv_exact returns them as a list), and chunks_to_float rounds
each value to the nearest float64 (ties to even) without leaving numpy.

B is the widest limb for which Percival's bound on the FFT round-off
(C. Percival, Math. Comp. 72 (2003) 387-395, Thm. 5.1) stays below 1/4:

    ||z' - z||_inf <= sum_{j+l=s} ||a_j||_2 ||b_l||_2
                      * ((1+eps)^{3n} (1+eps sqrt5)^{3n+1} (1+beta)^{3n} - 1)

with n = log2 M, ||a_j||_2 <= sqrt(len a) 2^{B-1}, and one extra (1+eps) per
spectral addition.  The theorem is stated for a radix-2 transform; numpy's
pocketfft orders its butterflies differently, so every call also checks
that each output lies within 1/4 of an integer and raises ArithmeticError
otherwise.  The result is exact, or the call fails loudly.
"""
from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

_EPS = 2.0 ** -53   # unit round-off of a float64 operation
_BETA = 2.0 ** -52  # error allowed in each of pocketfft's twiddle factors
_MAX_WIDTH = 30     # widths past this never pass the bound (4^29 eps > 1)
_CHUNK_BITS = 62    # int64 digit chunks keep a sign bit spare


def _fft_error_factor(n: int, additions: int) -> float:
    """Percival's relative error factor of a length-2^n FFT convolution,
    with `additions` further roundings of the summed spectra."""
    return math.expm1((3 * n + additions) * math.log1p(_EPS)
                      + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5.0))
                      + 3 * n * math.log1p(_BETA))


def _limb_count(bits: int, width: int) -> int:
    """Balanced width-bit limbs that represent every |v| < 2^bits (width >= 2).

    With L limbs the offset H = 2^{width-1} (2^{width L} - 1)/(2^width - 1)
    maps the signed range onto [0, 2^{width L}); width L >= bits + 2 covers
    (-2^bits, 2^bits)."""
    return -(-(bits + 2) // width)


def limb_width(bits_a: int, bits_b: int, len_a: int, len_b: int,
               size: int) -> int:
    """Widest limb width B whose Percival bound at transform size `size`
    stays below 1/4, for inputs with |a| < 2^bits_a and |b| < 2^bits_b."""
    scale = math.sqrt(len_a * len_b)
    for width in range(_MAX_WIDTH, 1, -1):
        pairs = min(_limb_count(bits_a, width), _limb_count(bits_b, width))
        factor = _fft_error_factor(size.bit_length() - 1, pairs - 1)
        if pairs * scale * 4.0 ** (width - 1) * factor < 0.25:
            return width
    raise ArithmeticError(f"no limb width keeps an FFT of size {size} exact")


def _int_array(values: Sequence[int]) -> np.ndarray:
    """int64 when every value fits, else an object array of Python ints.
    A value that is not an integer (2.5, nan) raises ValueError."""
    if isinstance(values, np.ndarray) and not np.can_cast(values.dtype, np.int64):
        values = values.tolist()
    if not isinstance(values, np.ndarray) and any(v % 1 != 0 for v in values):
        raise ValueError("exact convolution needs integer inputs")
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array([int(v) for v in values], dtype=object)


def _limb_spectra(values: np.ndarray, bits: int, width: int, size: int):
    """rfft of each balanced limb series of values, low limb first."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    spectra = []
    for _ in range(_limb_count(bits, width)):
        low = values & mask
        up = low >= half
        spectra.append(np.fft.rfft((low - (up << width)).astype(float), size))
        values = (values >> width) + up  # (values - limb) / 2^width, no overflow
    return spectra


def conv_chunks(a: Sequence[int], b: Sequence[int],
                out_len: int) -> Tuple[List[np.ndarray], int]:
    """The exact (signed) integer convolution of a and b, first out_len
    coefficients, as (chunks, C): coefficient k is
    sum_q chunks[q][k] 2^{q C}, with chunks[q] in [0, 2^C) below the top
    chunk and the top chunk a signed int64."""
    same = b is a
    a = _int_array(a[:out_len])
    b = a if same else _int_array(b[:out_len])
    if not len(a) or not len(b):
        return [np.zeros(out_len, dtype=np.int64)], _CHUNK_BITS
    full = len(a) + len(b) - 1
    size = 1 << (full - 1).bit_length()
    keep = min(out_len, full)
    bits_a = max(int(a.max()), -int(a.min())).bit_length()
    bits_b = max(int(b.max()), -int(b.min())).bit_length()
    width = limb_width(bits_a, bits_b, len(a), len(b), size)
    spec_a = _limb_spectra(a, bits_a, width, size)
    spec_b = spec_a if same else _limb_spectra(b, bits_b, width, size)

    mask, per_chunk = (1 << width) - 1, _CHUNK_BITS // width
    chunks: List[np.ndarray] = []
    carry = np.zeros(out_len, dtype=np.int64)
    acc = np.empty_like(spec_a[0])
    term = np.empty_like(acc)
    degrees = len(spec_a) + len(spec_b) - 1
    s = 0
    while s < degrees or ((carry != 0) & (carry != -1)).any():
        if s < degrees:  # sum_{j+l=s} a_j * b_l, rounded to integers
            acc[:] = 0
            for j in range(max(0, s - len(spec_b) + 1), min(s, len(spec_a) - 1) + 1):
                np.multiply(spec_a[j], spec_b[s - j], out=term)
                acc += term
            x = np.fft.irfft(acc, size)[:keep]
            r = np.rint(x)
            worst = float(np.abs(x - r).max())
            if worst >= 0.25:
                raise ArithmeticError(
                    f"FFT round-off {worst:.3g} >= 1/4 at limb width {width}")
            carry[:keep] += r.astype(np.int64)
        digit = carry & mask
        carry >>= width
        q, pos = divmod(s, per_chunk)
        if pos:
            chunks[q] |= digit << (pos * width)
        else:
            chunks.append(digit)
        s += 1
    # carry is 0 or -1 (the sign): fold it into the top chunk, which becomes
    # a signed int64
    chunks[-1] += carry << ((s - (len(chunks) - 1) * per_chunk) * width)
    return chunks, width * per_chunk


def chunks_to_ints(chunks: List[np.ndarray], chunk_bits: int) -> np.ndarray:
    """The values sum_q chunks[q] 2^{q chunk_bits} (conv_chunks): an int64
    array while every value lies in [-2^63, 2^63), else an object array of
    Python ints.  From the top chunk down, the partial values move to
    Python ints once one of them would leave int64 at the next shift."""
    out, limit = chunks[-1], 1 << (63 - chunk_bits)
    for chunk in reversed(chunks[:-1]):
        if out.dtype != object and ((out < -limit) | (out >= limit)).any():
            out = out.astype(object)
        out = (out << chunk_bits) | chunk
    return out


def chunks_to_float(chunks: List[np.ndarray], chunk_bits: int) -> np.ndarray:
    """The values sum_q chunks[q] 2^{q chunk_bits} (conv_chunks), each
    rounded to the nearest float64, ties to even, as float(int) rounds.

    From the top chunk down, the bits of each chunk are shifted into a
    signed int64 `acc` while it has room below 2^62.  Once a chunk does not
    fit, acc holds floor(v / 2^e) with at least 61 significant bits; the
    bits below it only set a sticky bit and raise e.  acc | sticky is then
    v / 2^e rounded to odd, with at least 55 bits, so the int64 -> float64
    conversion (round half to even) rounds it as it would round v, and
    ldexp by e is exact."""
    acc = chunks[-1]
    e = np.zeros(acc.shape, dtype=np.int64)
    sticky = np.zeros(acc.shape, dtype=np.int64)
    for chunk in reversed(chunks[:-1]):
        # frexp's exponent of |acc| (or |acc + 1| below 0) is its bit length
        # or one more, so a shift by `room` stays inside [-2^62, 2^62)
        top_bit = np.frexp(np.where(acc < 0, ~acc, acc).astype(np.float64))[1]
        room = _CHUNK_BITS - top_bit.astype(np.int64)
        shift = np.where(e > 0, 0, np.clip(room, 0, chunk_bits))
        drop = chunk_bits - shift
        acc = (acc << shift) | (chunk >> drop)
        sticky |= (chunk & ((1 << drop) - 1)) != 0
        e += drop
    return np.ldexp((acc | sticky).astype(np.float64), e)


def conv_exact(a: Sequence[int], b: Sequence[int], out_len: int) -> List[int]:
    """Exact (signed) integer convolution of a and b, first out_len coeffs."""
    return chunks_to_ints(*conv_chunks(a, b, out_len)).tolist()
