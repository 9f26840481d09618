"""Steadiness of the benchmark: sets of runs of one commit, compared with
the bounds in BENCHMARK.json.

    python3 bench/steady.py [--runs 10] [--workload NAME ...] [--out FILE]

Two sets of runs; every run gets its own seed, from 1 upwards.  For each
workload and end-to-end metric it reports each set's median and quartile
spread (q3 - q1 over the median, from statistics.quantiles(values, n=4))
and checks that each spread is within the metric's bound, that the two
sets' medians differ by no more than the bound, and that the share of
failed operations is the same in every run.  The
results file records the git sha, the Python, numpy and scipy versions
and the number of usable cores.  Exit status 1 means a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
FIRST_SEED = 1


def git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def machine() -> dict:
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    took = time.perf_counter() - start
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result.update(seed=seed, elapsed_s=took)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def analyse(spec: dict, runs: dict) -> tuple[dict, list[str]]:
    summary, problems = {}, []
    for w, sets in runs.items():
        summary[w] = {}
        shares = {Fraction(r["failed"], r["attempted"]) for s in sets for r in s}
        if len(shares) != 1:
            problems.append(f"{w}: failed share differs between runs: {sorted(map(str, shares))}")
        if not all(r["correct"] for s in sets for r in s):
            problems.append(f"{w}: a run reported correct=false")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [spread([r["metrics"][name]["value"] for r in s]) for s in sets]
            every = spread([r["metrics"][name]["value"] for s in sets for r in s])
            summary[w][name] = {
                "sets": [dict(zip(("median", "q1", "q3", "spread"), v)) for v in per_set],
                "all_runs": dict(zip(("median", "q1", "q3", "spread"), every)),
                "bound": bound,
            }
            for i, (med, _, _, sp) in enumerate(per_set):
                if sp > bound:
                    problems.append(f"{w} {name}: set {i + 1} spread {sp:.3f} > bound {bound}")
                shift = (med - per_set[0][0]) / per_set[0][0]
                if abs(shift) > bound:
                    problems.append(f"{w} {name}: set {i + 1} median {shift:+.3f} from set 1's")
    return summary, problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")
    workloads = args.workload or names

    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = FIRST_SEED
    for s in range(SETS):
        for _ in range(args.runs):
            for w in workloads:  # interleaved, so slow drift of the machine hits every workload
                r = one_run(w, seed, args.seconds)
                runs[w][s].append(r)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(f"set {s + 1} {w:12s} seed {seed:4d} {vals} failed {r['failed']}/{r['attempted']}"
                      f" ({r['elapsed_s']:.1f} s)", flush=True)
            seed += 1

    summary, problems = analyse(spec, runs)
    for w, per in summary.items():
        for name, v in per.items():
            sets = "  ".join(f"{d['median']:.4g} ({d['spread']:.3f})" for d in v["sets"])
            print(f"{w:12s} {name:12s} median (spread) per set: {sets}  all runs: "
                  f"{v['all_runs']['median']:.4g} ({v['all_runs']['spread']:.3f}), bound {v['bound']}")
    for p in problems:
        print("NOT STEADY", p)
    out = args.out or ROOT / ".bench_work" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machine": machine(), "seconds": args.seconds, "summary": summary,
                               "problems": problems, "runs": runs}, indent=1) + "\n")
    print(f"results: {out}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
