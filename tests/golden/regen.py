"""Golden digests of the command line's output.

Each case writes a few input files, then runs `delaymap` commands in a
fresh directory, in process.  Its digest records every step's exit code
and the sha256 of its stdout, plus the sha256 of every file left in the
directory (inputs included).  Inputs come from `delaymap synth` or from
the few lines of text below, so nothing but the digests is committed.

Run from the repository root to rewrite `digests.json`:

    PYTHONPATH=src python tests/golden/regen.py

Only a change that alters an artifact on purpose regenerates it, and
that change lists every digest that moved.  The digests hold on one
host: this numpy and the C library's `log` (AMI, noise) are part of the
contract.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def _prices(header: str, sep: str = "\n") -> str:
    """A time,price table of 400 rows from an integer recurrence."""
    rows, x = [header], 5
    for i in range(400):
        x = (x * 37 + 11) % 101
        rows.append(f"{i},{x / 4}")
    return sep.join(rows) + sep


_GAPS = "v\n1.5\nNA\n2.25\n\n3.0\n0.5\nNA\nNA\n4.75\n" + "".join(
    f"{(i * 7) % 11 / 2}\n" if i % 5 else "NA\n" for i in range(400)
)
_QUOTED = "".join(f'"{(i * 13) % 17 * 0.25}"\n' for i in range(40))
_HENON = "synth --kind henon -n 3000 --output h.csv"
_NOISE = "synth --kind white_noise -n 3000 --seed {} --output n.csv"
_LORENZ = "synth --kind lorenz -n 5000 --output l.csv"

#: name -> (input files to write, commands to run in order).  A step
#: "cmd ... < file" feeds the file to stdin.
CASES = {
    "pipeline-henon-fixed-delay": ({}, [_HENON, "pipeline h.csv --fixed-delay 1 --output-dir out"]),
    "pipeline-noise-seed-3": (
        {}, [_NOISE.format(3), "pipeline n.csv --fixed-delay 1 --output-dir out"]
    ),
    "pipeline-noise-seed-7": ({}, [_NOISE.format(7), "pipeline n.csv --output-dir out"]),
    "pipeline-lorenz": ({}, [
        _LORENZ,
        "pipeline l.csv --output-dir ami",
        "pipeline l.csv --fixed-dimension 3 --output-dir m3",
    ]),
    "stage-chain": ({}, [
        _LORENZ,
        "ami l.csv --output mi.csv --summary ami.json",
        "embed l.csv --delay 17 --dimension 3 --output cloud.csv",
        "entropy cloud.csv --output scaling.csv",
        "dimension scaling.csv --output di.json",
        "fnn l.csv --delay 17 --output fnn.csv --summary fnn.json",
        "embed l.csv --delay 17 --dimension 3 --axes 2,0",
    ]),
    "column-by-name": (
        {"p.csv": _prices("time,price")}, ["pipeline p.csv --column price --output-dir out"]
    ),
    "column-by-index": (
        {"p.csv": _prices("time,price")},
        ["pipeline p.csv --column 1 --skip-header --output-dir out"],
    ),
    "missing-drop": ({"g.csv": _GAPS}, [
        "pipeline g.csv --column v --missing-policy drop --output-dir out",
        "ami g.csv --column v --missing-policy drop --summary -",
    ]),
    "missing-forward-fill": ({"g.csv": _GAPS}, [
        "pipeline g.csv --column v --output-dir out",
        "ami g.csv --column v --summary -",
    ]),
    "crlf": ({"c.csv": _prices("time,price", "\r\n")}, [
        "pipeline c.csv --column price --output-dir out",
        "ami - --column 1 --skip-header --summary - < c.csv",
    ]),
    "quoted-cells": ({"q.csv": _QUOTED}, ["ami q.csv --summary -", "embed q.csv --delay 2 --dimension 2"]),
    "stdin": ({}, [
        "synth --kind sine -n 600 --period 30 --output s.csv",
        "ami - --t-max 10 --summary - < s.csv",
        "embed - --delay 7 --dimension 2 < s.csv",
    ]),
    "load-errors": ({"bad.csv": "1\n2\nbogus\n4\n", "short.csv": "a,b\n1,2\n3\n4,5\n"}, [
        "ami bad.csv",
        "ami short.csv --column 1 --skip-header",
        "ami short.csv --column price",
        "ami absent.csv",
        "pipeline bad.csv --output-dir out",
    ]),
    "synth-kinds": ({}, [
        "synth --kind henon -n 200",
        "synth --kind logistic -n 200",
        "synth --kind lorenz -n 500",
        "synth --kind sine -n 64 --period 16",
        "synth --kind white_noise -n 101 --seed 7",
        "synth --kind sine -n 50 --period 10 --amplitude 2.5 --phase 0.3",
        "synth --kind lorenz -n 300 --initial 1,2,3 --skip 10 --dt 0.02",
        "synth --kind henon -n 100 --a 1.2 --b 0.25 --x0 0.3 --y0 -0.1 --skip 0",
        "synth --kind white_noise -n 40 --seed 2 --mean 3 --stddev 0.5 --output w.csv",
    ]),
    "synth-errors": ({}, [
        "synth --kind henon -n 50 --seed 1",
        "synth --kind sine -n 50",
        "synth --kind white_noise -n 50",
        "synth --kind white_noise -n 50 --seed 1 --skip 5",
        "synth --kind sine -n 50 --period 8 --a 1",
        "synth --kind lorenz -n 50 --initial 1,2",
        "synth --kind logistic -n 50 --r 5",
        "synth --kind lorenz -n 50 --skip -1",
        "synth --kind henon -n 1",
        "synth --kind sine -n 50 --period 1",
    ]),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_step(step: str) -> dict:
    from delaymap.cli import main

    argv, _, stdin_file = step.partition(" < ")
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        if stdin_file:
            # the interpreter's own stdin: UTF-8, line endings untranslated
            raw = stack.enter_context(open(stdin_file, "rb"))
            text = stack.enter_context(io.TextIOWrapper(raw, "utf-8", newline="\n"))
            stack.enter_context(_swapped("stdin", text))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        try:
            code = main(shlex.split(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": step, "exit": code, "stdout": _sha(out.getvalue().encode("utf-8"))}


@contextlib.contextmanager
def _swapped(name, stream):
    saved = getattr(sys, name)
    setattr(sys, name, stream)
    try:
        yield
    finally:
        setattr(sys, name, saved)


def run_case(name: str, workdir: str) -> dict:
    """Run one case in an empty ``workdir`` and return its digest record."""
    files, steps = CASES[name]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for path, text in files.items():
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        record = {"steps": [_run_step(step) for step in steps]}
    finally:
        os.chdir(cwd)
    written = {}
    for root, _, names in os.walk(workdir):
        for fname in names:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                written[os.path.relpath(path, workdir).replace(os.sep, "/")] = _sha(fh.read())
    record["files"] = dict(sorted(written.items()))
    return record


def main() -> None:
    manifest = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            manifest[name] = run_case(name, workdir)
    with open(MANIFEST, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest)} cases to {MANIFEST}")


if __name__ == "__main__":
    main()
