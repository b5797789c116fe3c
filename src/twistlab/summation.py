"""Compensated summation.

Summation order is part of the reproducibility contract: a sequence is
cut into blocks of 4096 terms in ascending index order, each block is
summed by numpy's pairwise reduction (deterministic for a fixed block
size), and the block sums are combined in ascending order with a Neumaier
error carry.  Every length, the empty one included, takes that one loop.
No BLAS call is made, so results are bit-stable across runs and BLAS
thread counts; the pairwise blocking is numpy's own, so bits are promised
across machines only for one numpy version.

A block whose terms are all -0.0 adds +0.0 (0.0 + -0.0 in the carry), so
no sum returns -0.0.  An infinite term makes the sum nan (inf - inf in the
carry).
"""
from __future__ import annotations

import numpy as np

_BLOCK = 4096


def compensated_real_sum(values) -> float:
    """Compensated sum of a 1-D real sequence in ascending index order;
    0.0 for an empty one."""
    arr = np.asarray(values, dtype=np.float64)
    s = c = 0.0
    for i in range(0, arr.shape[0], _BLOCK):
        v = float(np.sum(arr[i : i + _BLOCK]))
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
    return s + c


def compensated_sum(values) -> complex:
    """Compensated sum of a 1-D complex sequence: compensated_real_sum of
    the real parts and of the imaginary parts, each a contiguous copy."""
    arr = np.asarray(values)
    return complex(compensated_real_sum(arr.real.astype(np.float64)),
                   compensated_real_sum(arr.imag.astype(np.float64)))
