"""The whole default chain against `oracles.reference_chain`.

The reference composes the slow recounts of each stage (the MI double
loop, the per-point false-neighbor scan, the scalar box count and a
plain-loop window search) with no library code, so agreement shows that
the pipeline wires its stages as the rules say.  A change to one stage's
rule changes the reference with it.
"""

import math

import numpy as np
import pytest

from delaymap import EntropyScaling, henon, information_dimension, logistic, sine
from delaymap.pipeline import PipelineConfig, run_pipeline
from oracles import box_entropy, fit_windows, reference_chain


def _records():
    """Twelve seeded records of 80-160 samples, two of each kind."""
    rng = np.random.default_rng(14)
    kinds = {
        "henon": lambda n: henon(n, x0=float(rng.uniform(0.0, 0.2))).values,
        "logistic": lambda n: logistic(n, x0=float(rng.uniform(0.1, 0.9))).values,
        "sine": lambda n: sine(n, int(rng.integers(8, 30))).values,
        "noise": lambda n: rng.normal(size=n),
        "walk": lambda n: np.cumsum(rng.normal(size=n)),
        "ticks": lambda n: rng.integers(-3, 4, n).astype(float),  # many tied pairs
    }
    for kind, draw in kinds.items():
        for k in range(2):
            yield f"{kind}-{k}", draw(int(rng.integers(80, 161)))


def test_pipeline_matches_the_reference_chain(tmp_path):
    outcomes = set()
    for name, values in _records():
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(f"{float(v)!r}\n" for v in values))
        config = PipelineConfig(
            input_path=str(path), t_max=8, m_max=5, output_dir=str(tmp_path / name)
        )
        report = run_pipeline(config)
        ref = reference_chain(values, 8, 5)
        got = (report.selected_delay, report.delay_fallback_used, report.selected_dimension)
        assert got == (ref["delay"], ref["fallback"], ref["dimension"]), name
        assert report.status == ref["status"], name
        outcomes.add((ref["fallback"], ref["status"]))
        if ref["dimension"] is None:
            assert report.entropy_bits is None and report.estimate is None, name
            continue
        assert abs(report.entropy_bits - ref["entropy_bits"]) <= 1e-9, name
        assert any(abs(report.estimate.d_i - d) <= 1e-9 for d in ref["d_i"]), name
    # the records reach a minimum and fall back, find a dimension and find none
    assert {f for f, _ in outcomes} == {False, True}
    assert {s for _, s in outcomes} == {"ok", "no_dimension_found"}


def test_every_entropy_of_a_longer_record_matches_the_box_scan(tmp_path):
    # at 2 000 points S(r_ref) sits below log2 N, so the reference resolution
    # range/256 shows: range/255 reads about 0.02 bits more
    values = henon(2000).values
    path = tmp_path / "h.csv"
    path.write_text("".join(f"{float(v)!r}\n" for v in values))
    out = tmp_path / "out"
    report = run_pipeline(PipelineConfig(
        input_path=str(path), fixed_delay=1, fixed_dimension=2, output_dir=str(out)
    ))
    pts = [[float(a), float(b)] for a, b in zip(values[:-1], values[1:])]
    span = float(values.max() - values.min())
    assert report.entropy_bits < math.log2(len(pts))
    assert abs(report.entropy_bits - box_entropy(pts, span / 256.0)) <= 1e-9
    rows = np.loadtxt(out / "entropy_scaling.csv", delimiter=",", skiprows=2, ndmin=2)
    ladder = np.geomspace(span / 4.0, span / 512.0, 16)
    assert np.array_equal(rows[:, 0], ladder)
    for r, s in zip(rows[:, 0], rows[:, 2]):
        assert abs(s - box_entropy(pts, float(r))) <= 1e-9, r


@pytest.mark.parametrize(
    "bits, window, d_i",
    [
        # every window fits exactly: the widest wins
        (lambda x: x, (1, 7), 1.0),
        # two width-4 windows fit exactly, at slopes 1 and 2: the finer wins
        (lambda x: x if x <= 4 else 4 + 2 * (x - 4), (4, 7), 2.0),
    ],
    ids=["widest", "finest"],
)
def test_exact_fits_tie_to_the_wider_then_the_finer_window(bits, window, d_i):
    ladder = [2.0 ** -x for x in range(1, 8)]
    ys = [float(bits(x)) for x in range(1, 8)]
    est = information_dimension(EntropyScaling(tuple(zip(ladder, ys))))
    coarse, fine = window
    assert est.fit_range == (2.0 ** -fine, 2.0 ** -coarse)
    assert (est.points_used, est.d_i, est.r_squared) == (fine - coarse + 1, d_i, 1.0)
    (r2, width, reach), slope = fit_windows(ladder, ys)[0]
    assert (r2, width, -reach, slope) == (1.0, est.points_used, est.fit_range[0], d_i)
