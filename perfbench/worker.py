"""One workload process: set up, time whole passes over the workload's
operations in a closed loop (one process, one thread), check every result,
and print a JSON report as the last line of standard output.

Run by run.py; it prints ``READY <perf_counter>`` when set-up ends so that
the parent can time set-up from before the process started.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import twistlab  # noqa: E402

if not os.path.abspath(twistlab.__file__).startswith(SRC + os.sep):
    sys.exit(f"twistlab imported from {twistlab.__file__}, not from {SRC}")

import stats  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracing import Tracer  # noqa: E402


def digest(x):
    """Every number in a result, for bit-for-bit comparison of runs."""
    if dataclasses.is_dataclass(x):
        return tuple(digest(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return tuple((k, digest(v)) for k, v in sorted(x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(digest(v) for v in x)
    if isinstance(x, (complex, np.complexfloating)):
        return (float(x.real).hex(), float(x.imag).hex())
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    return x


def run_pass(ops, tracer=None, calibrator=None):
    """Time each operation alone; returns (pass wall, op times, results),
    with an exception in place of the result of an operation that raised.
    The calibrator's probes run between operations and are left out of
    the pass wall."""
    times, results = [], []
    probing = 0.0
    start = time.perf_counter()
    for op in ops:
        if calibrator is not None:
            probing += calibrator.tick()
        if tracer is not None:
            tracer.op = op.label
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            result = exc
        times.append(time.perf_counter() - t0)
        results.append(result)
    wall = time.perf_counter() - start - probing
    return wall, times, results


class Verdicts:
    """Checks each distinct result of an operation once."""

    def __init__(self):
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, ops, results):
        for op, result in zip(ops, results):
            self.attempted += 1
            if isinstance(result, Exception):
                reason = f"{op.label}: raised {type(result).__name__}: {result}"
            else:
                seen = self.seen.setdefault(op.label, {})
                key = digest(result)
                if key not in seen:
                    try:
                        seen[key] = op.check(result)
                    except Exception as exc:
                        seen[key] = f"{op.label}: check raised {type(exc).__name__}: {exc}"
                reason = seen[key]
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(reason)


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import platform
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(workload, seconds):
    """Whole passes while another one, as long as the slowest so far, fits
    in `seconds` (at least one pass).  Times are reported in reference
    seconds (see calibrate.py); the raw figures are in the info."""
    walls, op_times, passes = [], [], []
    by_label = {}
    calibrator = Calibrator()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + max(walls) <= seconds:
        ops = workload.next_pass()
        wall, times, results = run_pass(ops, calibrator=calibrator)
        walls.append(wall)
        op_times.extend(times)
        passes.append((ops, results))
        for op, t in zip(ops, times):
            by_label.setdefault(op.label, []).append(t)
    calibrator.tick(force=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts = Verdicts()
    for ops, results in passes:
        verdicts.add(ops, results)
    n = len(op_times)
    raw = {"wall_s": stats.median(walls),
           "op_p50_s": stats.percentile(op_times, 0.5),
           "op_p90_s": stats.percentile(op_times, 0.9)}
    scale = calibrator.factor()
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    per_op = {label: stats.median(ts) for label, ts in sorted(by_label.items())}
    info = {"raw_s": raw, "calibration": calibrator.info(),
            "passes": len(walls), "pass_walls_s": walls, "operations_per_pass": len(ops),
            "op_median_s": per_op,
            "op_samples": n,
            "op_p50_samples_beyond": stats.tail_count(n, 0.5),
            "op_p90_samples_beyond": stats.tail_count(n, 0.9),
            "op_p90_supported": stats.supported(n, 0.9)}
    return metrics, info, verdicts


def measure_traced(workload, seconds, trace_path):
    """Pairs of one untraced and one traced pass while another pair, as long
    as the slowest so far, fits in `seconds` (at least one pair); per-layer
    metrics are medians over the traced passes, the spans file holds the
    last traced pass."""
    tracer = Tracer()
    plain, traced, layers, unattributed = [], [], [], []
    passes, mismatched, pairs = [], [], []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start + max(pairs) <= seconds:
        pair_start = time.perf_counter()
        ops = workload.next_pass()
        wall, _, base = run_pass(ops)
        plain.append(wall)
        passes.append((ops, base))
        tracer.reset()
        tracer.install()
        try:
            wall, _, results = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        pairs.append(time.perf_counter() - pair_start)
        passes.append((ops, results))
        layers.append(tracer.layer_metrics())
        unattributed.append(wall - tracer.covered())
        for op, a, b in zip(ops, base, results):
            a = type(a).__name__ if isinstance(a, Exception) else digest(a)
            b = type(b).__name__ if isinstance(b, Exception) else digest(b)
            if a != b:
                mismatched.append(op.label)
    tracer.write_jsonl(trace_path)
    verdicts = Verdicts()
    for ops, results in passes:
        verdicts.add(ops, results)
    metrics = {name: stats.median([m[name] for m in layers]) for name in layers[0]}
    metrics["trace.overhead_s"] = stats.median(traced) - stats.median(plain)
    metrics["trace.unattributed_s"] = stats.median(unattributed)
    # a traced result that differs from the untraced one is a failure
    verdicts.failed += len(mismatched)
    verdicts.reasons += [f"{label}: traced result differs" for label in mismatched[:20]]
    info = {"pairs": len(plain), "operations_per_pass": len(ops),
            "untraced_walls_s": plain, "traced_walls_s": traced,
            "bit_identical": not mismatched, "spans_file": os.path.relpath(trace_path, ROOT)}
    return metrics, info, verdicts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    print(f"READY {time.perf_counter()!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics, info, verdicts = measure_traced(workload, args.seconds, path)
    else:
        metrics, info, verdicts = measure(workload, args.seconds)
    info.update(environment=environment(),
                failures=verdicts.reasons)
    print(json.dumps({"attempted": verdicts.attempted, "failed": verdicts.failed,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
