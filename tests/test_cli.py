import dataclasses
import io
import json
import re
import sys
import warnings

import numpy as np
import pytest

from delaymap import henon, load_csv, sine, white_noise
from delaymap.cli import build_parser, main
from delaymap.pipeline import PipelineConfig, coerce_config_value


def write_series(path, values):
    with open(path, "w") as fh:
        fh.write("\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "delaymap" in capsys.readouterr().out


def test_synth_output_is_deterministic(tmp_path):
    args = ["synth", "--kind", "white_noise", "-n", "50", "--seed", "3"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    head = a.read_text().splitlines()[0]
    assert head.startswith("# delaymap synth: kind=white_noise n=50 seed=3")


def test_synth_roundtrips_through_the_loader(tmp_path):
    out = tmp_path / "sine.csv"
    code = main(
        ["synth", "--kind", "sine", "-n", "64", "--period", "16",
         "--amplitude", "2.0", "--output", str(out)]
    )
    assert code == 0
    loaded = load_csv(str(out))
    assert np.array_equal(loaded.values, sine(64, 16, amplitude=2.0).values)


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--kind", "sine", "-n", "50"],  # sine needs --period
        ["synth", "--kind", "henon", "-n", "50", "--seed", "1"],
        ["synth", "--kind", "white_noise", "-n", "50"],  # noise needs --seed
        ["synth", "--kind", "sine", "-n", "50", "--period", "8", "--a", "1.0"],
        ["synth", "--kind", "white_noise", "-n", "50", "--seed", "1", "--skip", "5"],
        ["synth", "--kind", "lorenz", "-n", "50", "--initial", "1,2"],
        ["pipeline"],  # no input anywhere
        ["dimension", "x", "--fit-r-lo", "0.5", "--fit-r-hi", "0.1"],  # reversed
        ["dimension", "x", "--fit-r-lo", "0", "--fit-r-hi", "0.1"],  # r must be > 0
        ["dimension", "x", "--fit-r-lo", "0.1"],  # missing --fit-r-hi
        ["ami", "x", "--missing-policy", "bogus"],
        ["pipeline", "x", "--missing-policy", "bogus"],
        ["fnn", "x", "--delay", "1", "--m-max", "many"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_synth_help_lists_one_flag_per_generator_setting(capsys):
    with pytest.raises(SystemExit):
        main(["synth", "--help"])
    assert set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)) == {
        "--kind", "--output", "--a", "--b", "--x0", "--y0", "--r", "--dt", "--sigma", "--rho",
        "--beta", "--initial", "--period", "--amplitude", "--phase", "--seed", "--mean",
        "--stddev", "--skip",
    }
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--kind", "henon", "-n", "50", "--period", "3"])
    assert exc.value.code == 2
    assert "henon does not take --period" in capsys.readouterr().err


def test_synth_then_ami_chain(tmp_path, capsys):
    series_file = tmp_path / "s.csv"
    assert main(
        ["synth", "--kind", "sine", "-n", "1200", "--period", "40",
         "--output", str(series_file)]
    ) == 0
    capsys.readouterr()
    code = main(["ami", str(series_file)])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0].startswith("# delaymap ami:")
    assert lines[1] == "lag,bits"
    summary = json.loads(captured.err)
    assert summary["selected_lag"] == 6
    assert summary["fallback_used"] is False


def test_ami_too_short_for_selection_gives_null_summary(tmp_path, capsys):
    path = write_series(tmp_path / "tiny.csv", np.sin(np.arange(12.0)))
    summary_file = tmp_path / "summary.json"
    code = main(["ami", str(path), "--summary", str(summary_file)])
    assert code == 0
    assert json.loads(summary_file.read_text()) == {
        "selected_lag": None,
        "fallback_used": None,
        "bits_at_selected": None,
    }


def test_ami_fallback_exits_4(tmp_path, capsys):
    path = write_series(tmp_path / "ramp.csv", np.arange(200.0))
    code = main(["ami", str(path), "--t-max", "3"])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.err)["fallback_used"] is True


def test_ami_reads_stdin(tmp_path, capsys, monkeypatch):
    text = "\n".join(repr(float(v)) for v in sine(600, 30).values) + "\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["ami", "-", "--t-max", "10"]) == 0
    assert "lag,bits" in capsys.readouterr().out


def test_fnn_selects_dimension_two_for_sine(tmp_path, capsys):
    path = write_series(tmp_path / "sine.csv", sine(2000, 40).values)
    code = main(["fnn", str(path), "--delay", "10"])
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(captured.err)
    assert summary == {"selected_m": 2, "found": True}
    assert captured.out.splitlines()[1] == "m,fraction,tested,skipped"


def test_fnn_not_found_exits_5(tmp_path, capsys):
    path = write_series(tmp_path / "noise.csv", white_noise(400, 9).values)
    code = main(["fnn", str(path), "--delay", "1", "--m-max", "2"])
    captured = capsys.readouterr()
    assert code == 5
    assert json.loads(captured.err)["found"] is False


def test_embed_writes_the_window_rows(tmp_path, capsys):
    path = write_series(tmp_path / "s.csv", [1.0, 2.0, 3.0])
    code = main(["embed", str(path), "--delay", "1", "--dimension", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[1:] == ["1.0,2.0", "2.0,3.0"]


def test_embed_axes_validation_exits_2(tmp_path):
    path = write_series(tmp_path / "s.csv", np.arange(30.0))
    for axes in ("0,5", "0"):  # out of range; wrong arity
        with pytest.raises(SystemExit) as exc:
            main(["embed", str(path), "--delay", "1", "--dimension", "2",
                  "--axes", axes])
        assert exc.value.code == 2


def test_entropy_on_a_cloud_file(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("0.0,0.0\n1.0,1.0\n")
    code = main(["entropy", str(cloud), "--r-values", "0.5"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "# delaymap entropy: dimension=2 total=2"
    assert lines[2] == "0.5,1.0,1.0"


def test_entropy_zero_spread_needs_explicit_r(tmp_path, capsys):
    cloud = tmp_path / "flat.csv"
    cloud.write_text("1.0,2.0\n1.0,2.0\n")
    code = main(["entropy", str(cloud)])
    assert code == 1
    assert "zero spread" in capsys.readouterr().err


def test_dimension_fit_from_scaling_csv(tmp_path, capsys):
    scaling = tmp_path / "scaling.csv"
    scaling.write_text(
        "r,log2_inv_r,S_bits\n"
        + "".join(f"{2.0**-k!r},{float(k)!r},{2.0 * k!r}\n" for k in range(1, 7))
    )
    code = main(["dimension", str(scaling)])
    captured = capsys.readouterr()
    assert code == 0
    got = json.loads(captured.out)
    assert got["D_I"] == pytest.approx(2.0, abs=1e-12)
    assert got["points_used"] == 6


def test_dimension_with_two_entries_exits_6(tmp_path, capsys):
    scaling = tmp_path / "scaling.csv"
    scaling.write_text("0.5,1.0,1.0\n0.25,2.0,2.0\n")
    code = main(["dimension", str(scaling)])
    assert code == 6
    assert "at least 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_row", ["garbage,1,2", "0.0625", "0.0625,4.0,nan", "inf,4.0,8.0", "0.0625,4.0,-inf"]
)
def test_dimension_rejects_a_bad_row_after_the_header(tmp_path, capsys, bad_row):
    scaling = tmp_path / "scaling.csv"
    rows = "".join(f"{2.0**-k!r},{float(k)!r},{2.0 * k!r}\n" for k in range(1, 5))
    scaling.write_text(f"# comment\nr,log2_inv_r,S_bits\n{rows}{bad_row}\n")
    code = main(["dimension", str(scaling)])
    captured = capsys.readouterr()
    assert code == 3
    assert bad_row in captured.err
    assert captured.out == ""


def test_dimension_skips_the_rows_the_series_loader_skips(tmp_path, capsys):
    rows = [f"{2.0**-k!r},{float(k)!r},{2.0 * k!r}" for k in range(1, 7)]
    plain = tmp_path / "plain.csv"
    plain.write_text("r,log2_inv_r,S_bits\n" + "".join(row + "\n" for row in rows))
    gappy = tmp_path / "gappy.csv"
    gappy.write_text(
        "# comment\n,,\nr,log2_inv_r,S_bits\n\n" + "\n  # indented\n,,\n".join(rows) + "\n"
    )
    assert main(["dimension", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main(["dimension", str(gappy)]) == 0
    assert capsys.readouterr().out == expected


def test_dimension_errors_name_the_line(tmp_path, capsys):
    scaling = tmp_path / "scaling.csv"
    scaling.write_text("r,log2_inv_r,S_bits\n\n0.5,1.0,1.0\n# note\n0.25,2.0,nan\n")
    assert main(["dimension", str(scaling)]) == 3
    assert f"{scaling}:5: non-finite scaling row '0.25,2.0,nan'" in capsys.readouterr().err


def test_entropy_box_edge_below_the_lattice_range_exits_1(tmp_path, capsys):
    cloud = tmp_path / "segment.csv"
    cloud.write_text("0.0\n0.5\n1.0\n")
    code = main(["entropy", str(cloud), "--r-values", "1e-25"])
    assert code == 1
    assert "int64" in capsys.readouterr().err
    # default ladders whose divisors cannot give box edges
    for flags in (["--r-coarse-div", "0"], ["--r-fine-div", "0"], ["--r-coarse-div", "-4"],
                  ["--r-fine-div", "nan"], ["--r-coarse-div", "1024"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["entropy", str(cloud), *flags])
        err = capsys.readouterr().err
        assert code == 1, flags
        assert err.startswith("error: ") and "r_coarse_div" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["ami", "entropy", "dimension"])
def test_missing_input_exits_3(tmp_path, capsys, command):
    code = main([command, str(tmp_path / "absent.csv")])
    assert code == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_entropy_rejects_a_non_finite_cloud_row(tmp_path, capsys, cell):
    cloud = tmp_path / "cloud.csv"
    cloud.write_text(f"# delaymap embed\n0.0,0.0\n0.5,{cell}\n1.0,1.0\n")
    code = main(["entropy", str(cloud)])
    captured = capsys.readouterr()
    assert code == 3
    assert "non-finite" in captured.err and "row 2" in captured.err
    assert captured.out == ""


# One text per PipelineConfig field; a field added without one fails below.
_FLAG_SAMPLES = {
    "input_path": "runs/in.csv", "column": "close", "skip_header": "yes",
    "missing_policy": "drop", "j_bins": "8", "t_max": "40", "m_max": "12",
    "r_tol": "7.5", "theiler_window": "3", "fnn_threshold": "0.05",
    "ladder_steps": "12", "r_coarse_div": "2", "r_fine_div": "1024",
    "r_ref_div": "128", "fit_r_lo": "0.01", "fit_r_hi": "0.2", "fixed_delay": "4",
    "fixed_dimension": "3", "output_dir": "runs/a", "timestamp": "off",
}


@pytest.mark.parametrize(
    "field", dataclasses.fields(PipelineConfig), ids=lambda f: f.name
)
def test_pipeline_flag_parses_like_the_config_key(field):
    text = _FLAG_SAMPLES[field.name]
    want = coerce_config_value(field.name, text)
    if field.name == "input_path":
        argv = [text]
    elif isinstance(want, bool):
        flag = field.name.replace("_", "-")
        argv = ["x", f"--{flag}" if want else f"--no-{flag}"]
    else:
        argv = ["x", "--" + field.name.replace("_", "-"), text]
    got = getattr(build_parser().parse_args(["pipeline", *argv]), field.name)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize(
    "argv, names",
    [
        (["ami", "x"], ["column", "skip_header", "missing_policy", "t_max", "j_bins"]),
        (["fnn", "x", "--delay", "1"], ["m_max", "r_tol", "theiler_window", "fnn_threshold"]),
        (["embed", "x", "--delay", "1", "--dimension", "2"], ["column", "missing_policy"]),
        (["entropy", "x"], ["ladder_steps", "r_coarse_div", "r_fine_div"]),
        (["dimension", "x"], ["fit_r_lo", "fit_r_hi"]),
    ],
)
def test_stage_flag_defaults_are_the_config_defaults(argv, names):
    args = build_parser().parse_args(argv)
    config = PipelineConfig(input_path="x")
    for name in names:
        assert getattr(args, name) == getattr(config, name), name


def test_unset_pipeline_flags_leave_the_config_to_decide():
    args = build_parser().parse_args(["pipeline"])
    assert all(getattr(args, f.name) is None for f in dataclasses.fields(PipelineConfig))


def test_pipeline_cli_end_to_end(tmp_path, capsys):
    path = write_series(tmp_path / "sine.csv", sine(1200, 40).values)
    out = tmp_path / "run"
    code = main(["pipeline", path, "--output-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "status: ok" in captured.out
    assert "D_I:" in captured.out
    report_once = (out / "report.json").read_bytes()
    assert main(["pipeline", path, "--output-dir", str(out)]) == 0
    assert (out / "report.json").read_bytes() == report_once


def test_pipeline_cli_exit_codes(tmp_path):
    ramp = write_series(tmp_path / "ramp.csv", np.arange(200.0))
    noise = write_series(tmp_path / "noise.csv", white_noise(400, 9).values)
    out = str(tmp_path / "o")
    assert main(["pipeline", ramp, "--output-dir", out, "--t-max", "3"]) == 4
    assert main(
        ["pipeline", noise, "--output-dir", out, "--m-max", "2",
         "--fixed-delay", "1"]
    ) == 5
    assert main(
        ["pipeline", ramp, "--output-dir", out, "--fixed-delay", "2",
         "--fixed-dimension", "2", "--ladder-steps", "2"]
    ) == 6


def test_pipeline_names_a_float64_overflow_of_the_distances(tmp_path, capsys):
    path = write_series(tmp_path / "huge.csv", henon(500).values * 1e160)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pipeline", path, "--output-dir", str(tmp_path / "o"), "--fixed-delay", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error in stage 'dimension': squared distances overflow float64")
    assert "theiler" not in err
    assert "RuntimeWarning" not in err and not caught


def test_pipeline_rejects_a_bad_config_before_any_stage(tmp_path, capsys):
    path = write_series(tmp_path / "henon.csv", henon(500).values)
    out = tmp_path / "o"
    assert main(["pipeline", path, "--output-dir", str(out), "--r-tol", "-1"]) == 1
    assert "r_tol" in capsys.readouterr().err
    assert not (out / "mi_curve.csv").exists()
    assert not out.exists()
    assert main(["pipeline", path, "--output-dir", str(out), "--j-bins", "1"]) == 1
    assert "bins" in capsys.readouterr().err
    assert not out.exists()

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output_dir = {out}\nmissing_policy = bogus\n")
    assert main(["pipeline", path, "--config", str(cfg)]) == 1
    assert "missing_policy" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_config_file_and_flag_precedence(tmp_path, capsys):
    path = write_series(tmp_path / "sine.csv", sine(900, 30).values)
    dir_file = tmp_path / "from_file"
    dir_flag = tmp_path / "from_flag"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"input_path = {path}\n"
        f"output_dir = {dir_file}\n"
        "j_bins = 8\n"
        "fixed_delay = 2\n"
    )
    assert main(["pipeline", "--config", str(cfg)]) == 0
    doc = json.loads((dir_file / "report.json").read_text())
    assert doc["config"]["j_bins"] == 8
    assert doc["delay"] == {"selected": 2, "fallback_used": False, "source": "fixed"}

    # explicit flags beat the file
    assert main(
        ["pipeline", "--config", str(cfg), "--j-bins", "32",
         "--output-dir", str(dir_flag)]
    ) == 0
    doc = json.loads((dir_flag / "report.json").read_text())
    assert doc["config"]["j_bins"] == 32
    assert doc["config"]["output_dir"] == str(dir_flag)


def test_pipeline_env_var_sets_output_dir(tmp_path, monkeypatch):
    path = write_series(tmp_path / "sine.csv", sine(900, 30).values)
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("DELAYMAP_OUTPUT_DIR", str(env_dir))
    assert main(["pipeline", path, "--fixed-delay", "2"]) == 0
    assert (env_dir / "report.json").is_file()

    # a config file overrides the environment
    file_dir = tmp_path / "file_out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output_dir = {file_dir}\n")
    assert main(["pipeline", path, "--config", str(cfg), "--fixed-delay", "2"]) == 0
    assert (file_dir / "report.json").is_file()


@pytest.mark.parametrize(
    "content, where",
    [
        (b"# " + b"x" * 140_000 + b"\n1.0\n2.0\n3.0\n", "series.csv:1: field larger"),
        (b"1.0\n2.0\n\xff3.0\n4.0\n", "cannot read"),
        # a quoted cell over lines 2-3 must not shift the later line numbers
        (b'1\n"2\n"\n3\nbogus\n4\n', "series.csv:5: non-numeric cell 'bogus'"),
    ],
    ids=["line-over-the-csv-field-limit", "not-utf-8", "after-a-quoted-line-break"],
)
def test_unreadable_series_text_exits_3(tmp_path, capsys, content, where):
    path = tmp_path / "series.csv"
    path.write_bytes(content)
    code = main(["ami", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert where in err and "series.csv" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ami"],
        ["fnn", "--delay", "1"],
        ["embed", "--delay", "1", "--dimension", "2"],
        ["entropy"],
        ["dimension"],
        ["pipeline", "--output-dir", "out"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_reader_exits_3_on_text_that_is_not_utf_8(tmp_path, capsys, argv):
    path = tmp_path / "input.csv"
    path.write_bytes(b"0.5,1.0,1.0\n0.25,2.0,\xff2.0\n0.125,3.0,3.0\n0.0625,4.0,4.0\n")
    command, *flags = argv
    code = main([command, str(path), *[str(tmp_path / f) if f == "out" else f for f in flags]])
    captured = capsys.readouterr()
    assert code == 3
    assert str(path) in captured.err
    assert captured.out == ""
