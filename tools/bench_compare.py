"""Paired benchmark runs of a base revision against this checkout.

    python3 tools/bench_compare.py --base REV --pairs N --workload W \
        --out BENCH_<n>.json [--seed FIRST]

Three arms run the benchmark that BENCHMARK.json declares:

  * base   -- REV, extracted with `git archive REV | tar -x` (no network,
              no change to .git);
  * change -- this checkout's src/ and perfbench/, copied as they are now,
              committed or not;
  * aa     -- a second extraction of REV.  Base and aa run identical code,
              so their difference is the host's noise, and a change/base
              ratio inside it shows nothing.

Triple i runs the three arms one process at a time, all on seed FIRST + i,
in an order rotated by one arm per triple, each with BENCHMARK.json's
run_seconds.  The workload's section of the output holds every run and,
per end-to-end metric, each arm's median and IQR, the change/base ratio,
the change's wins over base out of N, the A/A ratio, and BENCHMARK.json's
bound (read, never changed).  Sections of other workloads already in the
output are kept, so one file can hold every workload, each with its own N,
provided they share the base commit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARMS = ("base", "change", "aa")
# what the benchmark builds and runs from a checkout
TREES = ("src", "perfbench")


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: str) -> None:
    """REV's files into dest: `git archive REV | tar -x`."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def copy_checkout(dest: str) -> None:
    """This checkout's benchmarked trees into dest, without build output."""
    for tree in TREES:
        shutil.copytree(os.path.join(ROOT, tree), os.path.join(dest, tree),
                        ignore=shutil.ignore_patterns("__pycache__", "out"))


def tree_digest(root: str) -> str:
    """sha256 over the path and bytes of every file of the benchmarked
    trees, so a reader can tell which code an arm ran."""
    h = hashlib.sha256()
    for tree in TREES:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, tree)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "out"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_once(checkout: str, command: Sequence[str], workload: str, seed: int,
             seconds: int) -> dict:
    """One benchmark process: its result line and its info line."""
    argv = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited with "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    return {"result": json.loads(lines[-1]), "info": json.loads(lines[-2])["info"]}


def rotated(i: int) -> List[str]:
    k = i % len(ARMS)
    return list(ARMS[k:] + ARMS[:k])


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and IQR (Q3 - Q1, statistics.quantiles' default method, as in
    perfbench/README.md) of one arm's runs."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "iqr": q3 - q1}


def wins(change: Sequence[float], base: Sequence[float], better: str) -> int:
    """Pairs in which change reads better than base; ties count for neither."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for c, b in zip(change, base) if sign * (b - c) > 0)


def summarize(values: Dict[str, Sequence[float]], better: str, bound: float) -> dict:
    """One metric over the three arms' runs, listed in triple order.

    gain: the claim rule -- the change wins at least nine tenths of the
    pairs and its median beats the base median by more than the base IQR.
    within_bound: the change's median is not worse than the base median by
    more than the bound, a fraction of the base median."""
    arms = {arm: spread(values[arm]) for arm in ARMS}
    base, change = arms["base"]["median"], arms["change"]["median"]
    n = len(values["base"])
    won = wins(values["change"], values["base"], better)
    improvement = base - change if better == "lower" else change - base
    return {
        **{arm: {**arms[arm], "values": list(values[arm])} for arm in ARMS},
        "change_base_ratio": change / base,
        "aa_base_ratio": arms["aa"]["median"] / base,
        "wins": won,
        "aa_wins": wins(values["aa"], values["base"], better),
        "pairs": n,
        "bound": bound,
        "gain": 10 * won >= 9 * n and improvement > arms["base"]["iqr"],
        "within_bound": -improvement <= bound * base,
    }


def section(runs: Dict[str, List[dict]], spec: dict) -> dict:
    """The workload's summary: correctness and every end-to-end metric."""
    metrics = {}
    for m in spec["end_to_end"]:
        values = {arm: [r["result"]["metrics"][m["name"]]["value"] for r in runs[arm]]
                  for arm in ARMS}
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              **summarize(values, m["better"], m["bound"])}
    correct = {arm: {"runs": len(runs[arm]),
                     "incorrect_runs": sum(not r["result"]["correct"] for r in runs[arm]),
                     "attempted": sum(r["result"]["attempted"] for r in runs[arm]),
                     "failed": sum(r["result"]["failed"] for r in runs[arm])}
               for arm in ARMS}
    return {"correctness": correct, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision of the base arm")
    ap.add_argument("--pairs", type=int, required=True, help="triples to run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--out", required=True, help="JSON file to write or extend")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first triple")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = benchmark_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")

    commits = {"base": git("rev-parse", f"{args.base}^{{commit}}"),
               "change_head": git("rev-parse", "HEAD"),
               "change_uncommitted": bool(git("status", "--porcelain",
                                              "--untracked-files=no", "--", *TREES))}
    report = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report = json.load(fh)
        if report.get("commits", {}).get("base") != commits["base"]:
            ap.error(f"{args.out} holds runs against another base commit")

    seeds = [args.seed + i for i in range(args.pairs)]
    runs = {arm: [] for arm in ARMS}
    orders = []
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        dirs = {arm: os.path.join(tmp, arm) for arm in ARMS}
        for arm, path in dirs.items():
            os.makedirs(path)
            if arm == "change":
                copy_checkout(path)
            else:
                extract(commits["base"], path)
        digests = {arm: tree_digest(path) for arm, path in dirs.items()}
        for i, seed in enumerate(seeds):
            orders.append(rotated(i))
            for arm in orders[-1]:
                run = run_once(dirs[arm], spec["command"], args.workload, seed,
                               spec["run_seconds"])
                runs[arm].append({"seed": seed, **run})
                m = run["result"]["metrics"]
                print(f"{args.workload} seed {seed} {arm:6s} " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)

    report.update(
        benchmark={"command": spec["command"], "run_seconds": spec["run_seconds"]},
        commits=commits,
        environment=runs["change"][0]["info"]["environment"])
    report.setdefault("workloads", {})[args.workload] = {
        "pairs": args.pairs, "seeds": seeds, "orders": orders,
        "tree_sha256": digests,
        **section(runs, spec),
        "runs": {arm: [{"seed": r["seed"], **r["result"]} for r in runs[arm]]
                 for arm in ARMS},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
