import io
import json
import os
import pathlib

import numpy as np
import pytest

from delaymap import (
    FnnCurve,
    SeriesLoadError,
    __version__,
    fnn_fraction,
    henon,
    load_csv,
    neighbors,
    sine,
    white_noise,
)
from delaymap.pipeline import (
    STATUS_INSUFFICIENT_SCALING,
    STATUS_NO_DIMENSION,
    STATUS_OK,
    PipelineConfig,
    PipelineReport,
    coerce_config_value,
    fnn_params,
    parse_key_value_config,
    run_pipeline,
    write_fnn_csv,
)


def write_series(path, values):
    with open(path, "w") as fh:
        fh.write("\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


@pytest.fixture
def sine_csv(tmp_path):
    return write_series(tmp_path / "sine.csv", sine(1200, 40).values)


def test_clean_run_produces_all_artifacts(tmp_path, sine_csv):
    out = tmp_path / "out"
    rep = run_pipeline(PipelineConfig(input_path=sine_csv, output_dir=str(out)))
    assert rep.status == STATUS_OK
    assert rep.delay_source == "ami"
    assert rep.dimension_source == "fnn"
    assert rep.selected_dimension == 2
    assert not rep.delay_fallback_used
    assert rep.estimate is not None and rep.estimate.d_i > 0.5
    assert rep.entropy_bits > 0
    for name in ("mi_curve.csv", "fnn_curve.csv", "attractor.csv",
                 "entropy_scaling.csv", "report.json"):
        assert (out / name).is_file()
    assert sorted(rep.artifacts) == [
        "attractor", "entropy_scaling", "fnn_curve", "mi_curve", "report",
    ]


def test_report_json_schema(tmp_path, sine_csv):
    rep = run_pipeline(PipelineConfig(input_path=sine_csv, output_dir=str(tmp_path)))
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["toolkit_version"] == __version__
    assert doc["status"] == "ok"
    assert doc["input"]["n_samples"] == 1200
    assert doc["delay"]["selected"] == rep.selected_delay
    assert doc["dimension"] == {"selected": 2, "found": True, "source": "fnn"}
    assert doc["information_dimension"]["D_I"] == rep.estimate.d_i
    assert 0.0 <= doc["information_dimension"]["r_squared"] <= 1.0
    assert doc["config"]["j_bins"] == 16
    assert doc["config"]["m_max"] == 20
    assert "generated_at" not in doc


def test_fixed_overrides_skip_estimators(tmp_path, sine_csv):
    rep = run_pipeline(
        PipelineConfig(
            input_path=sine_csv,
            output_dir=str(tmp_path),
            fixed_delay=3,
            fixed_dimension=2,
        )
    )
    assert rep.status == STATUS_OK
    assert rep.delay_source == "fixed"
    assert rep.dimension_source == "fixed"
    assert rep.selected_delay == 3
    assert rep.selected_dimension == 2
    assert "mi_curve" not in rep.artifacts
    assert "fnn_curve" not in rep.artifacts
    assert not (tmp_path / "mi_curve.csv").exists()
    assert not (tmp_path / "fnn_curve.csv").exists()
    assert (tmp_path / "attractor.csv").is_file()


def test_monotone_mi_falls_back_but_completes(tmp_path):
    path = write_series(tmp_path / "ramp.csv", np.arange(200.0))
    rep = run_pipeline(
        PipelineConfig(input_path=path, output_dir=str(tmp_path), t_max=3)
    )
    assert rep.status == STATUS_OK  # fallback is a flag, not a failure
    assert rep.delay_fallback_used
    assert rep.selected_delay == 3
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["delay"]["fallback_used"] is True


def test_no_dimension_found_stops_after_fnn(tmp_path):
    path = write_series(tmp_path / "noise.csv", white_noise(400, 9).values)
    rep = run_pipeline(
        PipelineConfig(
            input_path=path, output_dir=str(tmp_path), m_max=2, fixed_delay=1
        )
    )
    assert rep.status == STATUS_NO_DIMENSION
    assert rep.dimension_found is False
    assert rep.selected_dimension is None
    assert rep.entropy_bits is None and rep.estimate is None
    assert sorted(rep.artifacts) == ["fnn_curve", "report"]
    assert not (tmp_path / "attractor.csv").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["status"] == "no_dimension_found"
    assert doc["information_dimension"] is None
    assert doc["entropy"] == {"bits": None, "r_ref": None}


def test_short_ladder_reports_insufficient_scaling(tmp_path):
    path = write_series(tmp_path / "ramp.csv", np.arange(200.0))
    rep = run_pipeline(
        PipelineConfig(
            input_path=path,
            output_dir=str(tmp_path),
            fixed_delay=2,
            fixed_dimension=2,
            ladder_steps=2,
        )
    )
    assert rep.status == STATUS_INSUFFICIENT_SCALING
    assert rep.estimate is None
    assert rep.entropy_bits is not None  # entropy stage still ran
    assert (tmp_path / "entropy_scaling.csv").is_file()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["information_dimension"] is None
    assert doc["entropy"]["bits"] == rep.entropy_bits


def test_identical_runs_are_byte_identical(tmp_path, monkeypatch):
    # identical relative config in two directories: every artifact byte-equal
    for sub in ("one", "two"):
        d = tmp_path / sub
        d.mkdir()
        write_series(d / "input.csv", sine(900, 30).values)

    def run_in(sub):
        monkeypatch.chdir(tmp_path / sub)
        run_pipeline(PipelineConfig(input_path="input.csv", output_dir="."))
        return {
            name: (tmp_path / sub / name).read_bytes()
            for name in os.listdir(tmp_path / sub)
            if name != "input.csv"
        }

    first = run_in("one")
    second = run_in("two")
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"


def test_numpy_scalars_in_a_config_write_the_same_report(tmp_path, monkeypatch, sine_csv):
    plain = dict(fixed_delay=1, fixed_dimension=2, skip_header=False, r_tol=10.0)
    scalars = dict(fixed_delay=np.int64(1), fixed_dimension=np.int64(2),
                   skip_header=np.False_, r_tol=np.float64(10.0))
    reports = []
    for sub, knobs in (("plain", plain), ("numpy", scalars)):
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        rep = run_pipeline(PipelineConfig(input_path=sine_csv, output_dir=".", **knobs))
        assert rep.status == STATUS_OK
        reports.append((tmp_path / sub / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_path_objects_in_a_config_write_the_same_report(tmp_path, monkeypatch, sine_csv):
    reports = []
    for sub, wrap in (("str", str), ("path", pathlib.Path)):
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        config = PipelineConfig(input_path=wrap(sine_csv), output_dir=wrap("."), fixed_delay=1)
        assert isinstance(config.input_path, str) and isinstance(config.output_dir, str)
        run_pipeline(config)
        reports.append((tmp_path / sub / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_a_report_that_fails_to_render_leaves_no_report_file(tmp_path, monkeypatch, sine_csv):
    def broken(self):
        raise TypeError("cannot render")

    monkeypatch.setattr(PipelineReport, "to_json", broken)
    with pytest.raises(TypeError):
        run_pipeline(PipelineConfig(input_path=sine_csv, output_dir=str(tmp_path)))
    assert (tmp_path / "entropy_scaling.csv").is_file()
    assert not (tmp_path / "report.json").exists()


def test_timestamp_flag_adds_generated_at(tmp_path, sine_csv):
    run_pipeline(
        PipelineConfig(
            input_path=sine_csv, output_dir=str(tmp_path), timestamp=True
        )
    )
    doc = json.loads((tmp_path / "report.json").read_text())
    assert "generated_at" in doc
    assert doc["generated_at"].endswith("+00:00")


def test_artifact_headers_name_their_stage(tmp_path, sine_csv):
    rep = run_pipeline(PipelineConfig(input_path=sine_csv, output_dir=str(tmp_path)))
    assert (tmp_path / "mi_curve.csv").read_text().startswith("# delaymap ami:")
    fnn_head = (tmp_path / "fnn_curve.csv").read_text().splitlines()[0]
    assert fnn_head.startswith("# delaymap fnn:")
    assert f"delay={rep.selected_delay}" in fnn_head
    scaling = (tmp_path / "entropy_scaling.csv").read_text().splitlines()
    assert scaling[0].startswith("# delaymap entropy: dimension=2")
    assert scaling[1] == "r,log2_inv_r,S_bits"


def test_load_failure_carries_stage_tag(tmp_path):
    cfg = PipelineConfig(
        input_path=str(tmp_path / "missing.csv"), output_dir=str(tmp_path)
    )
    with pytest.raises(SeriesLoadError) as exc:
        run_pipeline(cfg)
    assert exc.value.stage == "load"


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(input_path="x", ladder_steps=1)
    with pytest.raises(ValueError):
        PipelineConfig(input_path="x", r_coarse_div=512.0, r_fine_div=4.0)
    with pytest.raises(ValueError):
        PipelineConfig(input_path="x", fit_r_lo=0.1)  # missing fit_r_hi
    with pytest.raises(ValueError):
        PipelineConfig(input_path="x", fit_r_lo=0.5, fit_r_hi=0.1)  # reversed
    with pytest.raises(ValueError):
        PipelineConfig(input_path="x", fit_r_lo=0.0, fit_r_hi=0.1)  # r must be > 0
    with pytest.raises(ValueError):
        PipelineConfig(input_path="x", fixed_delay=0)
    with pytest.raises(ValueError):
        PipelineConfig(input_path="x", fixed_dimension=0)
    # the FNN keys, the bins, the divisors and the missing-value policy
    # are checked up front too
    for bad in ({"r_tol": -1.0}, {"m_max": 0}, {"theiler_window": -1},
                {"fnn_threshold": 1.5}, {"missing_policy": "bogus"}, {"j_bins": 1},
                {"r_ref_div": 0.0}, {"r_ref_div": float("inf")}, {"r_fine_div": float("inf")},
                {"r_coarse_div": float("nan")}):
        with pytest.raises(ValueError):
            PipelineConfig(input_path="x", **bad)


@pytest.mark.parametrize("bad", [{"t_max": 0}, {"t_max": -3}, {"column": -1}])
def test_config_refuses_a_bad_t_max_or_column_before_loading(bad):
    # the input does not exist, so only the build-time check can raise
    with pytest.raises(ValueError, match="t_max|column"):
        PipelineConfig(input_path="no-such-input.csv", **bad)


def test_coerce_config_value_types():
    assert coerce_config_value("column", "3") == 3
    assert coerce_config_value("column", "close") == "close"
    assert coerce_config_value("skip_header", "yes") is True
    assert coerce_config_value("timestamp", "off") is False
    assert coerce_config_value("m_max", "12") == 12
    assert coerce_config_value("r_tol", "7.5") == 7.5
    assert coerce_config_value("output_dir", " runs/a ") == "runs/a"
    with pytest.raises(ValueError):
        coerce_config_value("skip_header", "maybe")
    with pytest.raises(ValueError):
        coerce_config_value("no_such_key", "1")


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# run settings\n"
        "\n"
        "input_path = data.csv\n"
        "j_bins=32   # finer histogram\n"
        "fixed_delay = 4\n"
        "timestamp = true\n"
    )
    got = parse_key_value_config(str(cfg))
    assert got == {
        "input_path": "data.csv",
        "j_bins": 32,
        "fixed_delay": 4,
        "timestamp": True,
    }


def test_config_file_drops_a_leading_byte_order_mark(tmp_path):
    text = "input_path = data.csv\nfixed_delay = 4\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert parse_key_value_config(str(marked)) == parse_key_value_config(str(plain))


def test_config_file_errors_carry_line_numbers(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("input_path = data.csv\nj_bins thirty\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2.*key=value"):
        parse_key_value_config(str(cfg))
    cfg.write_text("m_max = many\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:1"):
        parse_key_value_config(str(cfg))


@pytest.mark.parametrize(
    "seed, fnn_keys",
    # seed 3 selects m=5 under the defaults and its sweep stops at m=7; r_tol=3
    # moves its crossing to m=10, so the compared curve runs to m=12
    [pytest.param(3, {"r_tol": 3.0}, id="3"), pytest.param(7, {}, id="7")],
)
def test_noise_artifacts_do_not_depend_on_the_neighbor_search_route(
    tmp_path, monkeypatch, seed, fnn_keys
):
    # a 3 000-point record takes the sweep at m = 1 and the blocked scan
    # past it; forcing the k-d tree wherever the sweep does not serve must
    # write the same bytes
    path = write_series(tmp_path / "noise.csv", white_noise(3000, seed).values)
    config = PipelineConfig(input_path=path, output_dir=str(tmp_path / "out"), **fnn_keys)
    scans = []
    scan = neighbors._dense_nearest
    monkeypatch.setattr(neighbors, "_dense_nearest", lambda *a: scans.append(1) or scan(*a))

    def artifacts():
        run_pipeline(config)
        return [(tmp_path / "out" / name).read_bytes() for name in ("fnn_curve.csv", "report.json")]

    routed = artifacts()
    assert scans
    monkeypatch.setattr(neighbors, "_SCAN_CONTRAST", np.inf)
    monkeypatch.setattr(neighbors, "_SCAN_PAIRS", 0)
    scans.clear()
    assert artifacts() == routed
    assert not scans


def test_fnn_curve_csv_is_a_prefix_of_the_full_sweep(tmp_path):
    path = write_series(tmp_path / "henon.csv", henon(3000).values)
    config = PipelineConfig(input_path=path, output_dir=str(tmp_path / "out"), fixed_delay=1)
    rep = run_pipeline(config)
    assert rep.selected_dimension == 2
    params = fnn_params(config)
    series = load_csv(path)
    full = FnnCurve(tuple(
        fnn_fraction(series, 1, m, params) for m in range(1, params.m_max + 1)
    ))
    buf = io.StringIO()
    write_fnn_csv(buf, full, 1, params)
    got = (tmp_path / "out" / "fnn_curve.csv").read_bytes()
    want = buf.getvalue().encode()
    assert len(got) < len(want) and want.startswith(got)
    assert got.decode().splitlines()[-1].startswith("4,")
