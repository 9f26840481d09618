"""Benchmark of the delaymap chain: one workload, one run.

    python3 bench/run.py --workload henon-fnn --seed 1 --seconds 24 --trace 0

Run from the repository root.  The program is run from `src/` as fresh
`delaymap` processes, one at a time, in whole rounds until the next round
would end after `--seconds`.  The first round's outputs are checked against
`reference.py`; every later round must write the same bytes.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
medians over the rounds.  With `--trace 1` each round runs the workload
untraced and then under `trace_main.py`, and the metrics are the
per-layer ones, medians over the traced rounds; `trace.overhead_s` is the
median over the rounds of traced minus untraced wall time.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAUNCH = "import sys; from delaymap.cli import main; sys.exit(main())"
SETUP_IMPORTS = 10     # at least this many import timings per run
IMPORTS_PER_ROUND = 2
PROCESS_TIMEOUT_S = 150
STAGES = ("synth", "ami", "embed", "entropy", "dimension")
LAYER_TIMES = ("series.load_s", "mutual.ami_s", "neighbors.fnn_s", "embedding.embed_s",
               "boxdim.entropy_s", "boxdim.ref_entropy_s", "boxdim.fit_s", "pipeline.write_s",
               "pipeline.self_s", "cli.self_s", "cli.startup_s", "generators.synth_s")
# Share of the traced wall time that may stay unaccounted, both within a
# traced round (interpreter exit and the gaps between spans) and in the
# run's medians once trace.overhead_s is added (there the machine's drift
# between a round and its traced twin shows as well).
ACCOUNT_TOLERANCE = 0.10


@dataclass
class Proc:
    stage: str
    code: int
    start: float  # time.perf_counter() at launch
    wall: float
    cpu: float
    rss_mb: float
    spans: dict | None = None


@dataclass
class Iteration:
    procs: list[Proc] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    artifact_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)


def spawn(argv: list[str], cwd: Path, log: Path, env: dict) -> tuple[int, float, float, float, float]:
    """Run one process to its end: (exit code, launch time, wall s, user+sys CPU s, peak RSS MB)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Bench:
    def __init__(self, workload, work: Path):
        self.workload = workload
        self.inputs = work / "inputs"
        self.run_dir = work / "run"
        self.logs = work / "logs"
        for d in (self.inputs, self.run_dir, self.logs):
            d.mkdir(parents=True)
        src = str(ROOT / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": src + (os.pathsep + old if old else "")}
        self.count = 0

    def launch(self, stage: str, args: list[str], traced: bool = False) -> Proc:
        self.count += 1
        log = self.logs / f"{self.count:04d}-{stage}"
        spans = log.with_suffix(".spans.json")
        if traced:
            argv = [sys.executable, str(BENCH / "trace_main.py"), str(spans), "--", *args]
        else:
            argv = [sys.executable, "-c", LAUNCH, *args]
        code, start, wall, cpu, rss = spawn(argv, self.run_dir, log, self.env)
        loaded = json.loads(spans.read_text()) if traced and spans.is_file() else None
        return Proc(stage, code, start, wall, cpu, rss, loaded)

    def import_seconds(self) -> float:
        """Time for a fresh interpreter to finish `import delaymap`."""
        self.count += 1
        log = self.logs / f"{self.count:04d}-import"
        code, _, wall, _, _ = spawn([sys.executable, "-c", "import delaymap"], self.logs, log, self.env)
        if code != 0:
            raise SystemExit(f"import delaymap failed; see {log}.err")
        return wall

    def iterate(self, traced: bool) -> Iteration:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir()
        it = Iteration()

        def launch(stage, args):
            it.procs.append(self.launch(stage, args, traced))

        self.workload.iterate(launch, self.run_dir)
        for path in sorted(p for p in self.run_dir.rglob("*") if p.is_file()):
            data = path.read_bytes()
            it.digests[str(path.relative_to(self.run_dir))] = hashlib.sha256(data).hexdigest()
            it.artifact_bytes += len(data)
        return it


def verdicts(workload, checked: Path, first: Iteration, its: list[Iteration]):
    """Per operation and iteration: None (passed), or (known fault?, message)."""
    base = {}
    for op in workload.operations:
        if any(p.code != 0 for p in first.procs):
            base[op.name] = (False, "exit codes " + str([p.code for p in first.procs]))
            continue
        try:
            op.check(checked)
            base[op.name] = None
        except CheckFailed as e:
            base[op.name] = (op.known_fault is not None, str(e))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            base[op.name] = (False, f"{type(e).__name__}: {e}")
    out = []
    for it in its:
        for op in workload.operations:
            same = all(it.digests.get(f) == first.digests.get(f) for f in op.files)
            ok = same and all(p.code == 0 for p in it.procs)
            out.append((op, base[op.name] if ok else (False, "output differs from the checked round")))
    return out


def layer_metrics(it: Iteration) -> tuple[dict, float]:
    """Per-layer values of one traced iteration, and the time the tracer
    itself spent wrapping functions (outside every layer).  Layer times are
    span self times; `cli.self_s` is the self time of `cli.main`, and
    `cli.startup_s` runs from launch to the end of the imports."""
    vals = {name: 0.0 for name in LAYER_TIMES}
    vals.update({f"neighbors.fnn_s.m{m}": 0.0 for m in range(1, 21)})
    vals.update({f"cli.stage_s.{s}": 0.0 for s in STAGES})
    counts = {"mutual.lags": 0, "neighbors.dims_evaluated": 0, "neighbors.points_tested": 0,
              "boxdim.partitions": 0}
    tracer = 0.0
    for p in it.procs:
        if p.stage in STAGES:
            vals[f"cli.stage_s.{p.stage}"] += p.wall
        if p.spans is None:  # no spans written: its time stays unaccounted
            continue
        spans = p.spans["spans"]
        dur = [end - start for _, _, start, end, _, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, _, parent, _) in enumerate(spans):
            if parent is not None:
                child[parent] += dur[i]
        for i, (name, layer, _, _, parent, note) in enumerate(spans):
            vals[layer] += dur[i] - child[i]
            if name == "fnn_fraction":
                vals[f"neighbors.fnn_s.m{note['m']}"] += dur[i]
                counts["neighbors.dims_evaluated"] += 1
                counts["neighbors.points_tested"] += note["tested"]
            counts["mutual.lags"] += note.get("lags", 0)
            counts["boxdim.partitions"] += name == "partition_boxes"
        vals["cli.startup_s"] += p.spans["imported"] - p.start
        tracer += p.spans["patched"] - p.spans["imported"]
    vals.update({k: float(v) for k, v in counts.items()})
    vals["pipeline.artifact_bytes"] = float(it.artifact_bytes)
    return vals, tracer


def median_of(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "delaymap" / "__init__.py").is_file():
        print(f"no delaymap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(workload, work)
    try:
        problems = []
        try:
            workload.make_inputs(bench.inputs, args.seed, bench.launch)
        except CheckFailed as e:
            problems.append(f"set-up: {e}")

        # Set-up (import) times are taken one after each round, once the
        # bytecode cache is warm, so they sample the run as the rounds do.
        plain, traced, imports = [], [], []
        t0 = time.perf_counter()
        longest = 0.0
        while True:
            r0 = time.perf_counter()
            plain.append(bench.iterate(traced=False))
            if len(plain) == 1:
                bench.run_dir.rename(work / "checked")
            if args.trace:
                traced.append(bench.iterate(traced=True))
            imports += [bench.import_seconds() for _ in range(IMPORTS_PER_ROUND)]
            longest = max(longest, time.perf_counter() - r0)
            if time.perf_counter() - t0 + longest > args.seconds:
                break
        while len(imports) < SETUP_IMPORTS:
            imports.append(bench.import_seconds())
        results = verdicts(workload, work / "checked", plain[0], plain + traced)
        failed = [(op, v) for op, v in results if v is not None]
        problems += [f"{op.name}: {v[1]}" for op, v in failed if not v[0]]
        for msg in sorted({f"{op.name}: {v[1]}" for op, v in failed}):
            print(f"FAILED {msg}", file=sys.stderr)

        if args.trace:
            wanted = spec["per_layer"]
            rows, layer_sums = [], []
            for it in traced:
                vals, tracer = layer_metrics(it)
                rows.append(vals)
                layer_sums.append(sum(vals[k] for k in LAYER_TIMES))
                rest = it.wall - layer_sums[-1] - tracer
                print(f"traced round: wall {it.wall:.4f} s = layers {layer_sums[-1]:.4f} s"
                      f" + tracer patching {tracer:.4f} s + exit and gaps {rest:.4f} s", file=sys.stderr)
                if abs(rest) > ACCOUNT_TOLERANCE * it.wall:
                    print(f"WARNING exit and gaps exceed {ACCOUNT_TOLERANCE:.0%} of the round", file=sys.stderr)
            metrics = median_of(rows)
            # each traced round follows its untraced twin, so the difference
            # is taken per pair
            metrics["trace.overhead_s"] = statistics.median(t.wall - u.wall for u, t in zip(plain, traced))
            traced_wall = statistics.median(it.wall for it in traced)
            rest = traced_wall - statistics.median(layer_sums) - metrics["trace.overhead_s"]
            print(f"median traced wall {traced_wall:.4f} s = layers {statistics.median(layer_sums):.4f} s"
                  f" + trace.overhead_s {metrics['trace.overhead_s']:.4f} s + unaccounted {rest:.4f} s"
                  f" ({rest / traced_wall:+.1%})", file=sys.stderr)
            if abs(rest) > ACCOUNT_TOLERANCE * traced_wall:
                print(f"WARNING unaccounted time exceeds {ACCOUNT_TOLERANCE:.0%} of the traced wall",
                      file=sys.stderr)
        else:
            wanted = spec["end_to_end"]
            metrics = {
                "wall_s": statistics.median(it.wall for it in plain),
                "cpu_s": statistics.median(sum(p.cpu for p in it.procs) for it in plain),
                "peak_rss_mb": statistics.median(max(p.rss_mb for p in it.procs) for it in plain),
                "setup_s": statistics.median(imports),
            }
        report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
        for name, v in report.items():
            print(f"{name} = {v['value']:.6g} {v['unit']}")
        print("round wall times: " + " ".join(f"{it.wall:.3f}" for it in plain + traced)
              + "; import times: " + " ".join(f"{t:.3f}" for t in imports))
        print(f"rounds = {len(plain)}, operations attempted = {len(results)}, failed = {len(failed)}")
        print(json.dumps({"correct": not problems, "attempted": len(results),
                          "failed": len(failed), "metrics": report}))
        for msg in problems:
            print(f"INCORRECT {msg}", file=sys.stderr)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
