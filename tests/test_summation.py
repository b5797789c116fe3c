"""Compensated summation against a two-level oracle.

The oracle is the summation this module once had: a sum of at most 4096
terms taken by one numpy reduction, longer ones cut into 4096-term blocks
whose sums are combined by a Neumaier loop.  The one loop that replaced it
must give the same bits at every length on either side of a block edge.
"""
import math

import numpy as np
import pytest

from twistlab.summation import compensated_real_sum, compensated_sum

BLOCK = 4096
LENGTHS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1]


def oracle_neumaier(values) -> float:
    s = 0.0
    c = 0.0
    for v in np.asarray(values, dtype=np.float64):
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
    return s + c


def oracle_real(arr: np.ndarray) -> float:
    n = arr.shape[0]
    if n <= BLOCK:
        return float(np.sum(arr)) if n else 0.0
    return oracle_neumaier([np.sum(arr[i : i + BLOCK]) for i in range(0, n, BLOCK)])


def oracle_complex(arr: np.ndarray) -> complex:
    return complex(oracle_real(arr.real.astype(np.float64)),
                   oracle_real(arr.imag.astype(np.float64)))


def spread(rng, n: int) -> np.ndarray:
    """Signed terms over 16 decades, so the block carry is exercised."""
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)


def same_bits(x: complex, y: complex) -> bool:
    x, y = complex(x), complex(y)
    return (x.real.hex(), x.imag.hex()) == (y.real.hex(), y.imag.hex())


@pytest.mark.parametrize("n", LENGTHS)
def test_real_input_matches_the_oracle(n):
    x = spread(np.random.default_rng(n), n)
    want = oracle_real(x)
    assert compensated_real_sum(x).hex() == want.hex()
    assert same_bits(compensated_sum(x), complex(want, 0.0))


@pytest.mark.parametrize("n", LENGTHS)
def test_complex_input_matches_the_oracle(n):
    rng = np.random.default_rng(1000 + n)
    z = spread(rng, n) + 1j * spread(rng, n)
    assert same_bits(compensated_sum(z), oracle_complex(z))


def test_empty_sums_are_zero():
    assert compensated_real_sum([]) == 0.0
    assert compensated_sum([]) == 0j


@pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1])
def test_negative_zeros_sum_to_positive_zero(n):
    # the carry starts at +0.0 and 0.0 + -0.0 is +0.0, so even a block
    # sum of -0.0 leaves +0.0 (numpy 2.4's np.sum already gives +0.0 here)
    zeros = np.full(n, -0.0)
    assert math.copysign(1.0, compensated_real_sum(zeros)) == 1.0
    assert math.copysign(1.0, compensated_sum(zeros).real) == 1.0
