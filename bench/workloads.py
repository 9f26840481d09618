"""The four benchmark workloads: their inputs, their delaymap commands and
the checks on what those commands write.

A workload's `iterate` runs one round of delaymap processes through a
`launch(stage, argv)` callback.  Its `operations` are the outputs one
round produces, each with a check that recomputes the output with
`reference.py`.  A check raises `CheckFailed`; an operation marked
`known_fault` fails because of a named fault in the program and is
counted as failed without making the run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Published dimensions of the two attractors (sources in README.md): the
# Lyapunov dimensions, which the Kaplan-Yorke conjecture equates with D_I.
# A 3-point auto-window on a 16-step ladder scatters about them, so the
# band is +-0.2.
HENON_DI, LORENZ_DI, DI_BAND = 1.26, 2.06, 0.2
FNN_SAMPLE = 1000
# Record lengths: each round takes 3-5 s here, so a run holds several rounds.
HENON_N, NOISE_N, LORENZ_N, CHAIN_N = 10_000, 3_000, 80_000, 80_000
TOL = 1e-9


class CheckFailed(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass(frozen=True)
class Operation:
    name: str
    files: tuple[str, ...]           # outputs it reads, relative to the run directory
    check: Callable[[Path], None]
    known_fault: str | None = None   # the fault that makes it fail today


def read_series(path: Path) -> np.ndarray:
    return np.loadtxt(path, comments="#", ndmin=1)


def read_table(path: Path) -> np.ndarray:
    """Numeric rows of a delaymap CSV: '#' lines and the one header row dropped."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    if lines and not lines[0][0].isdigit() and lines[0][0] not in "-.":
        lines = lines[1:]
    return np.loadtxt(lines, delimiter=",", ndmin=2)


def write_series(path: Path, values: np.ndarray) -> None:
    path.write_text("".join(repr(float(v)) + "\n" for v in values))


# ------------------------------------------------------------- checks

def check_ami(x: np.ndarray, curve_csv: Path, selected: int) -> None:
    rows = read_table(curve_csv)
    lags = rows[:, 0].astype(int)
    expect(list(lags) == list(range(1, len(lags) + 1)), "MI lags are not 1..t_max")
    expect(len(lags) == max(1, min(len(x) // 10, 100, len(x) - 2)), f"t_max {len(lags)} is not the default")
    bits = ref.ami_bits(x, lags)
    worst = float(np.abs(bits - rows[:, 1]).max())
    expect(worst <= TOL, f"I(T) differs from the recount by {worst:.3g}")
    expect(selected == ref.first_minimum(bits),
           f"delay {selected} is not the first local minimum {ref.first_minimum(bits)}")


def check_cloud(x: np.ndarray, cloud_csv: Path, delay: int, dim: int) -> None:
    header = cloud_csv.read_text().split("\n", 1)[0]
    expect(f"delay={delay} dimension={dim}" in header, f"embed header {header!r}")
    pts = read_table(cloud_csv)
    want = ref.embed(x, delay, dim)[:, :min(dim, 3)]
    expect(pts.shape == want.shape, f"attractor shape {pts.shape}, expected {want.shape}")
    expect(np.array_equal(pts, want), "attractor rows differ from series[i + kT]")


def check_scaling(points: np.ndarray, scaling_csv: Path, spread: float) -> None:
    rows = read_table(scaling_csv)
    r = rows[:, 0]
    expect(len(r) == 16, f"{len(r)} box sizes, expected 16")
    ladder = np.geomspace(spread / 4.0, spread / 512.0, 16)
    expect(np.allclose(r, ladder, rtol=1e-12, atol=0.0), "box sizes are not the default ladder")
    expect(np.allclose(rows[:, 1], -np.log2(r), rtol=0.0, atol=1e-12), "log2(1/r) column is wrong")
    for ri, s in zip(r, rows[:, 2]):
        want = ref.box_entropy(points, ri)
        expect(abs(want - s) <= TOL, f"S({ri:.6g}) = {s!r}, recount gives {want!r}")
        expect(s <= math.log2(len(points)) + 1e-12, f"S({ri:.6g}) exceeds log2 N")


def check_fit(rows: np.ndarray, est: dict, band: tuple[float, float] | None) -> None:
    r, x, y = rows[:, 0], -np.log2(rows[:, 0]), rows[:, 2]
    lo, hi = est["fit_range"]
    inside = (r >= lo) & (r <= hi)
    expect(int(inside.sum()) == est["points_used"], "fit_range and points_used disagree")
    slope, intercept, r2 = ref.line_fit(x[inside], y[inside])
    expect(abs(slope - est["D_I"]) <= TOL, f"D_I {est['D_I']!r}, refit gives {slope!r}")
    expect(abs(intercept - est["intercept"]) <= TOL, "intercept differs from the refit")
    expect(abs(r2 - est["r_squared"]) <= TOL, "r^2 differs from the refit")
    best = ref.best_window_r2(x, y)
    expect(best <= est["r_squared"] + TOL, f"a window has r^2 {best!r} > {est['r_squared']!r}")
    if band is not None:
        expect(band[0] <= est["D_I"] <= band[1], f"D_I {est['D_I']:.4f} outside {band}")


def fnn_rows(fnn_csv: Path) -> np.ndarray:
    rows = read_table(fnn_csv)
    expect(list(rows[:, 0].astype(int)) == list(range(1, len(rows) + 1)), "FNN dimensions are not 1..K")
    return rows


def check_fnn(x: np.ndarray, fnn_csv: Path, seed: int, one_sided: bool) -> None:
    """The program's false fraction at each m against a brute-force scan
    of a seeded sample of points, within a binomial margin."""
    rows = fnn_rows(fnn_csv)
    m_max = len(rows)
    expect(all(rows[i, 2] == len(x) - (i + 1) for i in range(m_max)), "tested counts are not N - m")
    rng = np.random.default_rng(seed)
    sample = np.sort(rng.choice(len(x) - m_max, size=FNN_SAMPLE, replace=False))
    got = ref.fnn_sample(x, delay=1, window=1, r_tol=10.0, m_max=m_max, sample=sample)
    for (m, frac, *_), est in zip(rows, got):
        margin = ref.binomial_margin(frac, FNN_SAMPLE)
        low = frac < est - margin
        high = not one_sided and frac > est + margin
        expect(not (low or high), f"m={int(m)}: fraction {frac:.4f}, sample gives {est:.4f} +- {margin:.4f}")


def report_of(run: Path) -> dict:
    return json.loads((run / "out" / "report.json").read_text())


# ---------------------------------------------------------- workloads

class Workload:
    name = ""
    why = ""
    operations: tuple[Operation, ...] = ()

    def make_inputs(self, inputs: Path, seed: int, launch) -> None:
        """Write the input files; `launch` may run a delaymap set-up command."""

    def iterate(self, launch, run: Path) -> None:
        """Run one round of delaymap processes with `run` as their directory."""
        raise NotImplementedError


class PipelineWorkload(Workload):
    input_name = ""
    flags: tuple[str, ...] = ()
    band: tuple[float, float] | None = None

    def __init__(self):
        self.seed = 0
        self.series = None

    def iterate(self, launch, run):
        launch("pipeline", ["pipeline", f"../inputs/{self.input_name}", *self.flags, "--output-dir", "out"])

    def _embed(self, run: Path) -> None:
        rep = report_of(run)
        check_cloud(self.series, run / "out/attractor.csv", rep["delay"]["selected"], rep["dimension"]["selected"])

    def _entropy(self, run: Path) -> None:
        rep = report_of(run)
        pts = ref.embed(self.series, rep["delay"]["selected"], rep["dimension"]["selected"])
        spread = float(self.series.max() - self.series.min())
        check_scaling(pts, run / "out/entropy_scaling.csv", spread)
        expect(abs(rep["entropy"]["r_ref"] - spread / 256.0) <= 1e-12 * spread, "r_ref is not range/256")
        want = ref.box_entropy(pts, rep["entropy"]["r_ref"])
        expect(abs(want - rep["entropy"]["bits"]) <= TOL, "entropy at r_ref differs from the recount")

    def _fit(self, run: Path) -> None:
        rep = report_of(run)
        expect(rep["status"] == "ok", f"status {rep['status']}")
        check_fit(read_table(run / "out/entropy_scaling.csv"), rep["information_dimension"], self.band)

    def _fnn(self, run: Path, one_sided: bool) -> None:
        check_fnn(self.series, run / "out/fnn_curve.csv", self.seed, one_sided)
        rows = fnn_rows(run / "out/fnn_curve.csv")
        first = next((int(m) for m, f, *_ in rows if f <= 0.01), None)
        expect(report_of(run)["dimension"]["selected"] == first, "selected m is not the first under threshold")


REPORT = "out/report.json"
SCALING = "out/entropy_scaling.csv"


class HenonFnn(PipelineWorkload):
    name = "henon-fnn"
    why = "Henon x, n=10000, T=1, full FNN sweep m=1..20: the neighbour search dominates"
    input_name = "henon.csv"
    flags = ("--fixed-delay", "1")
    band = (HENON_DI - DI_BAND, HENON_DI + DI_BAND)

    def __init__(self):
        super().__init__()
        self.operations = (
            Operation("fnn", ("out/fnn_curve.csv", REPORT), self._check_fnn),
            Operation("embed", ("out/attractor.csv", REPORT), self._embed),
            Operation("entropy", (SCALING, REPORT), self._entropy),
            Operation("fit", (SCALING, REPORT), self._fit),
        )

    def make_inputs(self, inputs, seed, launch):
        self.seed = seed
        self.series = ref.henon_x(HENON_N)
        write_series(inputs / self.input_name, self.series)

    def _check_fnn(self, run):
        self._fnn(run, one_sided=False)
        expect(report_of(run)["dimension"]["selected"] == 2, "Henon must select m=2")


class NoiseFnn(PipelineWorkload):
    name = "noise-fnn"
    why = "seeded white noise, n=3000, T=1: high dimension, where the k-d tree degenerates"
    input_name = "noise.csv"
    flags = ("--fixed-delay", "1")

    def __init__(self):
        super().__init__()
        self.operations = (
            Operation("fnn", ("out/fnn_curve.csv", REPORT), lambda run: self._fnn(run, one_sided=True)),
            Operation("noise-stays-false", ("out/fnn_curve.csv",), self._criterion_4,
                      known_fault="FNN uses the distance-ratio test alone (ROADMAP item 2)"),
            Operation("embed", ("out/attractor.csv", REPORT), self._embed),
            Operation("entropy", (SCALING, REPORT), self._entropy),
            Operation("fit", (SCALING, REPORT), self._fit),
        )

    def make_inputs(self, inputs, seed, launch):
        self.seed = seed
        self.series = ref.splitmix_gaussian(NOISE_N, seed)
        write_series(inputs / self.input_name, self.series)
        # the program's own generator must give the same record
        launch("synth", ["synth", "--kind", "white_noise", "-n", str(NOISE_N), "--seed", str(seed),
                         "--output", "../inputs/noise-synth.csv"])
        theirs = read_series(inputs / "noise-synth.csv")
        expect(np.allclose(theirs, self.series, rtol=1e-12, atol=1e-12),
               "delaymap synth white_noise differs from the SplitMix64 + Box-Muller transcription")

    # Once the sweep applies Kennel's second criterion, noise may find no
    # dimension up to m_max; the pipeline then stops after writing the FNN
    # curve.  Embed, entropy and fit follow the report: in that case they
    # check that nothing past the FNN stage was written.
    def _stopped_at_fnn(self, run: Path) -> bool:
        rep = report_of(run)
        if rep["status"] != "no_dimension_found":
            return False
        expect(rep["dimension"]["selected"] is None and not rep["dimension"]["found"],
               "no_dimension_found with a selected dimension")
        expect(rep["information_dimension"] is None and rep["entropy"]["bits"] is None,
               "no_dimension_found with an entropy or D_I")
        written = [f for f in ("attractor.csv", "entropy_scaling.csv") if (run / "out" / f).exists()]
        expect(not written, f"no_dimension_found but {written} written")
        return True

    def _embed(self, run):
        if not self._stopped_at_fnn(run):
            super()._embed(run)

    def _entropy(self, run):
        if not self._stopped_at_fnn(run):
            super()._entropy(run)

    def _fit(self, run):
        if not self._stopped_at_fnn(run):
            super()._fit(run)

    @staticmethod
    def _criterion_4(run):
        rows = fnn_rows(run / "out/fnn_curve.csv")[:8]
        low = {int(m): float(f) for m, f, *_ in rows if f <= 0.01}
        expect(not low, f"i.i.d. noise falls to the threshold at {low}")


class LorenzLong(PipelineWorkload):
    name = "lorenz-long"
    why = "Lorenz x, n=80000, AMI delay, m fixed at 3: FNN skipped; load, AMI, entropy and write"
    input_name = "lorenz.csv"
    flags = ("--fixed-dimension", "3")
    band = (LORENZ_DI - DI_BAND, LORENZ_DI + DI_BAND)

    def __init__(self):
        super().__init__()
        self.operations = (
            Operation("ami", ("out/mi_curve.csv", REPORT), self._ami),
            Operation("embed", ("out/attractor.csv", REPORT), self._embed),
            Operation("entropy", (SCALING, REPORT), self._entropy),
            Operation("fit", (SCALING, REPORT), self._fit),
        )

    def make_inputs(self, inputs, seed, launch):
        self.series = ref.lorenz_x(LORENZ_N)
        write_series(inputs / self.input_name, self.series)

    def _ami(self, run):
        check_ami(self.series, run / "out/mi_curve.csv", report_of(run)["delay"]["selected"])


class StageChain(Workload):
    name = "stage-chain"
    why = "five CLI processes synth, ami, embed, entropy, dimension over files, Lorenz n=80000"

    def __init__(self):
        self.operations = (
            Operation("synth", ("series.csv",), self._synth),
            Operation("ami", ("series.csv", "mi.csv", "ami.json"), self._ami),
            Operation("embed", ("series.csv", "ami.json", "cloud.csv"), self._embed),
            Operation("entropy", ("cloud.csv", "scaling.csv"), self._entropy),
            Operation("dimension", ("scaling.csv", "dimension.json"), self._dimension),
        )

    def iterate(self, launch, run):
        launch("synth", ["synth", "--kind", "lorenz", "-n", str(CHAIN_N), "--output", "series.csv"])
        launch("ami", ["ami", "series.csv", "--output", "mi.csv", "--summary", "ami.json"])
        delay = self._delay(run) if (run / "ami.json").is_file() else 1
        launch("embed", ["embed", "series.csv", "--delay", str(delay), "--dimension", "3", "--output", "cloud.csv"])
        launch("entropy", ["entropy", "cloud.csv", "--output", "scaling.csv"])
        launch("dimension", ["dimension", "scaling.csv", "--output", "dimension.json"])

    @staticmethod
    def _delay(run):
        return json.loads((run / "ami.json").read_text())["selected_lag"]

    def _synth(self, run):
        x = read_series(run / "series.csv")
        expect(len(x) == CHAIN_N, f"synth wrote {len(x)} samples")
        # chaos amplifies rounding by ~e^9 over 1000 steps, far below 1e-6
        worst = float(np.abs(x[:1000] - ref.lorenz_x(1000)).max())
        expect(worst <= 1e-6, f"synth Lorenz departs from an independent RK4 by {worst:.3g}")

    def _ami(self, run):
        check_ami(read_series(run / "series.csv"), run / "mi.csv", self._delay(run))

    def _embed(self, run):
        check_cloud(read_series(run / "series.csv"), run / "cloud.csv", self._delay(run), 3)

    def _entropy(self, run):
        pts = read_table(run / "cloud.csv")
        check_scaling(pts, run / "scaling.csv", float(np.ptp(pts, axis=0).max()))

    def _dimension(self, run):
        est = json.loads((run / "dimension.json").read_text())
        check_fit(read_table(run / "scaling.csv"), est, (LORENZ_DI - DI_BAND, LORENZ_DI + DI_BAND))


WORKLOADS = {w.name: w for w in (HenonFnn, NoiseFnn, LorenzLong, StageChain)}
