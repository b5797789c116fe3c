"""Host-speed calibration.

On a shared host the whole machine changes speed from one minute to the
next, so the same code reads up to twice as slow in one run as in another.
The benchmark therefore times a fixed probe, which calls no twistlab code,
between the operations of every run, and scales the run's times by
REFERENCE_S / (median probe time of the run): the times it reports are
seconds at the host speed at which the probe takes REFERENCE_S.  A change
to twistlab cannot change the probe, so it moves the scaled times exactly
as it moves the raw ones; what cancels is the host's speed during the run.

The probe mixes the kinds of work the workloads do: interpreted Python, an
element-wise complex exponential over an outer product (the line kernel's
inner step), and int64 modular arithmetic (the exact convolutions).  None of
it calls BLAS, so the library's thread settings cannot change it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# median probe time on the reference host (shared 2-vCPU Intel Xeon,
# Python 3.11.7, numpy 2.4.6); see perfbench/README.md
REFERENCE_S = 0.0150
INTERVAL_S = 0.5  # at most one probe per this many seconds of a run

_T = np.linspace(10.0, 60.0, 128)
_LNN = np.log(np.arange(1.0, 513.0))
_INTS = np.arange(1, 1 << 15, dtype=np.int64)
_P = 998_244_353


def probe() -> float:
    """Seconds taken by one fixed piece of work."""
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    np.exp(-1j * np.outer(_T, _LNN)).sum()
    x = _INTS
    for _ in range(30):
        x = x * 40_503 % _P
    x.sum()
    return time.perf_counter() - start


class Calibrator:
    """Probes between operations, at most one per INTERVAL_S."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self.last = -float("inf")

    def tick(self, force: bool = False) -> float:
        """Probe if the interval has passed (or `force`); returns the
        seconds spent, so that callers can leave them out of their times."""
        now = time.perf_counter()
        if not force and now - self.last < self.interval:
            return 0.0
        self.samples.append(probe())
        self.last = time.perf_counter()
        return self.last - now

    def factor(self) -> float:
        """Scale from this run's seconds to reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)

    def info(self) -> dict:
        return {"reference_s": REFERENCE_S, "probes": len(self.samples),
                "probe_median_s": statistics.median(self.samples),
                "factor": self.factor()}
