"""The whole default chain against `oracles.reference_chain`.

The reference composes the slow recounts of each stage (the MI double
loop, the per-point false-neighbor scan, the scalar box count and a
plain-loop window search) with no library code, so agreement shows that
the pipeline wires its stages as the rules say.  A change to one stage's
rule changes the reference with it.
"""

import numpy as np

from delaymap import henon, logistic, sine
from delaymap.pipeline import PipelineConfig, run_pipeline
from oracles import reference_chain


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
