"""Compensated summation helpers.

Summation order is part of the reproducibility contract: series are
accumulated in ascending index order, block by block, with a Neumaier
error-carrying combine across blocks.  Within a block numpy's pairwise
reduction is used (deterministic for a fixed block size).  No BLAS call is
made, so results are bit-stable across runs and BLAS thread counts; the
pairwise blocking is numpy's own, so bits are promised across machines
only for one numpy version.
"""
from __future__ import annotations

import numpy as np

_BLOCK = 4096


def neumaier_sum(values) -> float:
    """Compensated sum of a 1-D real sequence, ascending order."""
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


def _block_compensated(arr: np.ndarray) -> float:
    n = arr.shape[0]
    if n <= _BLOCK:
        return float(np.sum(arr)) if n else 0.0
    partials = [np.sum(arr[i : i + _BLOCK]) for i in range(0, n, _BLOCK)]
    return neumaier_sum(partials)


def compensated_sum(values) -> complex:
    """Compensated sum of a complex sequence in ascending index order.

    Real and imaginary parts are accumulated independently: blockwise
    pairwise sums combined with a Neumaier carry.
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return 0.0 + 0.0j
    if np.iscomplexobj(arr):
        return complex(_block_compensated(arr.real.astype(np.float64)),
                       _block_compensated(arr.imag.astype(np.float64)))
    return complex(_block_compensated(arr.astype(np.float64)), 0.0)


def compensated_real_sum(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return _block_compensated(arr)
