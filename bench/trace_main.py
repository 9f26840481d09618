"""Run one delaymap command with spans around the calls into each module.

    python3 bench/trace_main.py SPANS.json -- <delaymap arguments>

Each public function is wrapped where the caller looks it up (the names
`delaymap.pipeline` and `delaymap.cli` imported, plus
`neighbors.fnn_fraction` and `boxdim.partition_boxes` inside their own
modules), so the program's code is unchanged.  Spans are kept in memory
and written to SPANS.json when the command returns; times are
`time.perf_counter()` readings, the same clock the launching process uses.
"""

import sys
import time

T_START = time.perf_counter()

import json  # noqa: E402

import delaymap.boxdim  # noqa: E402
import delaymap.cli  # noqa: E402
import delaymap.neighbors  # noqa: E402
import delaymap.pipeline  # noqa: E402

T_IMPORTED = time.perf_counter()

WRITERS = ("write_mi_csv", "write_fnn_csv", "write_cloud_csv", "write_scaling_csv")
LIBRARY = {  # name looked up by the pipeline or the CLI -> layer metric
    "load_csv": "series.load_s",
    "ami_curve": "mutual.ami_s",
    "first_local_minimum": "mutual.ami_s",
    "embedding_dimension": "neighbors.fnn_s",
    "delay_embed": "embedding.embed_s",
    "entropy_scaling": "boxdim.entropy_s",
    "information_dimension": "boxdim.fit_s",
    **{w: "pipeline.write_s" for w in WRITERS},
}
SITES = (
    *[(delaymap.pipeline, name, layer) for name, layer in LIBRARY.items()],
    *[(delaymap.cli, name, layer) for name, layer in LIBRARY.items()],
    (delaymap.pipeline, "partition_boxes", "boxdim.ref_entropy_s"),
    (delaymap.pipeline, "shannon_entropy", "boxdim.ref_entropy_s"),
    (delaymap.pipeline, "_write_artifact", "pipeline.write_s"),
    (delaymap.pipeline.PipelineReport, "to_json", "pipeline.write_s"),
    (delaymap.neighbors, "fnn_fraction", "neighbors.fnn_s"),
    (delaymap.boxdim, "partition_boxes", "boxdim.entropy_s"),
    (delaymap.cli, "run_pipeline", "pipeline.self_s"),
    (delaymap.cli, "generate", "generators.synth_s"),
    (delaymap.cli, "main", "cli.self_s"),
)


def _note(name, result):
    """Counts read off a call's result, kept with its span."""
    if name == "fnn_fraction":
        return {"m": result.m, "tested": result.tested_points}
    if name == "ami_curve":
        return {"lags": len(result)}
    return {}


class Recorder:
    """Spans as [name, layer, start, end, parent index, counts]."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, owner, name, layer):
        inner = getattr(owner, name)

        def traced(*args, **kwargs):
            span = [name, layer, time.perf_counter(), None, self.stack[-1] if self.stack else None, {}]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = inner(*args, **kwargs)
                span[5] = _note(name, result)
                return result
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()

        setattr(owner, name, traced)


def main():
    spans_path, argv = sys.argv[1], sys.argv[3:]
    rec = Recorder()
    missing = []
    for owner, name, layer in SITES:
        if hasattr(owner, name):
            rec.wrap(owner, name, layer)
        else:
            missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
    if missing:
        print("trace: not found, left unwrapped: " + ", ".join(missing), file=sys.stderr)
    t_patched = time.perf_counter()
    try:
        code = delaymap.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"start": T_START, "imported": T_IMPORTED, "patched": t_patched,
                       "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
