"""twistlab benchmark.

    python3 perfbench/run.py --workload {transform,sums,pointwise} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; twistlab is imported from ./src.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
The full report, with the environment and sample counts, is written to
perfbench/out/.  See perfbench/README.md for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calibrate import Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("transform", "sums", "pointwise")
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 9  # set-up is timed in this many processes, the median reported
SETUP_PROBES = 3  # calibration probes after each set-up process

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(".rate"):
        return "1/s"
    return "count"


class RunError(Exception):
    pass


def run_worker(args, extra, deadline):
    """Run one worker process; returns (set-up seconds, stdout lines)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", OUT_DIR] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if len(ready) != 1:
        raise RunError("worker did not report the end of set-up")
    return ready[0] - start, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "twistlab", "__init__.py")):
        print(f"no twistlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.perf_counter() + TIME_LIMIT_S

    calibrator = Calibrator()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, ["--setup-only"], deadline)[0])
                for _ in range(SETUP_PROBES):
                    calibrator.tick(force=True)
        setup, lines = run_worker(args, [], deadline)
        setups.append(setup)
        report = json.loads(lines[-1])
    except (RunError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    raw = dict(report["metrics"])
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in raw.items()}
    else:
        raw["setup_s"] = statistics.median(setups) * calibrator.factor()
        report["info"]["setup_calibration"] = calibrator.info()
        metrics = {k: {"value": raw[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    attempted, failed = report["attempted"], report["failed"]
    info = report["info"]
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, setup_samples_s=setups,
                fail_ratio=failed / attempted if attempted else 1.0)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
