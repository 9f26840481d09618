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
        ["dimension"],  # no input
        ["dimension", "x", "--fit-r-lo", "low", "--fit-r-hi", "0.1"],  # not a number
        ["dimension", "x", "--fit-r-hi"],  # flag without its value
        ["ami", "x", "--missing-policy", "bogus"],
        ["pipeline", "x", "--missing-policy", "bogus"],
        ["fnn", "x", "--delay", "1", "--m-max", "many"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "{series}", "--delay", "1", "--dimension", "2", "--axes", "0,5"],
        ["pipeline"],  # no input anywhere
        ["synth", "--kind", "henon", "-n", "10", "--seed", "5"],
    ],
    ids=["embed", "pipeline", "synth"],
)
def test_usage_errors_found_by_a_command_print_its_usage_line(argv, tmp_path, capsys):
    series = write_series(tmp_path / "s.csv", np.arange(30.0))
    with pytest.raises(SystemExit) as exc:
        main([a.format(series=series) for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: delaymap {argv[0]} ")


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


def test_synth_refuses_a_non_finite_setting_before_writing(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["synth", "--kind", "sine", "-n", "8", "--period", "4", "--amplitude", "inf"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--output", str(out)]) == 1
    assert "parameter amplitude must be finite" in capsys.readouterr().err
    assert not out.exists()


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


def test_ami_too_short_for_selection_falls_back_to_the_argmin(tmp_path, capsys):
    # twelve samples scan one lag: no interior entry, so no local minimum
    path = write_series(tmp_path / "tiny.csv", np.sin(np.arange(12.0)))
    summary_file = tmp_path / "summary.json"
    code = main(["ami", str(path), "--summary", str(summary_file)])
    assert code == 4
    bits = float(capsys.readouterr().out.splitlines()[-1].split(",")[1])
    assert json.loads(summary_file.read_text()) == {
        "selected_lag": 1,
        "fallback_used": True,
        "bits_at_selected": bits,
    }


@pytest.mark.parametrize("command", ["ami", "pipeline"])
def test_default_lag_scan_on_two_samples_names_the_length(tmp_path, capsys, command):
    path = write_series(tmp_path / "two.csv", [1.0, 2.0])
    out = ["--output-dir", str(tmp_path / "o")] if command == "pipeline" else []
    assert main([command, path, *out]) == 1
    assert "AMI needs at least 3 samples, got 2" in capsys.readouterr().err
    # an explicit bound keeps its own message
    assert main([command, path, *out, "--t-max", "1"]) == 1
    assert "t_max 1 outside [1, 0]" in capsys.readouterr().err


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


def test_fnn_refuses_an_infinite_r_tol(tmp_path, capsys):
    # the ratio test at R_tol = inf would call every pair true, zero distances included
    path = write_series(tmp_path / "henon.csv", henon(500).values)
    assert main(["fnn", path, "--delay", "1", "--r-tol", "inf"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error") and "r_tol" in err[0]
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, where", [("ami", "error: "), ("pipeline", "error in stage 'delay': ")]
)
def test_a_request_too_large_to_allocate_exits_1_with_one_error_line(
    command, where, tmp_path, capsys
):
    # a 10^8 x 10^8 joint histogram (71 PiB) fails before anything is allocated
    path = write_series(tmp_path / "henon.csv", henon(500).values)
    argv = [command, path, "--j-bins", "100000000"]
    if command == "pipeline":
        argv += ["--output-dir", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(where) and "allocate" in err[0]


def test_embed_writes_the_window_rows(tmp_path, capsys):
    path = write_series(tmp_path / "s.csv", [1.0, 2.0, 3.0])
    code = main(["embed", str(path), "--delay", "1", "--dimension", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[1:] == ["1.0,2.0", "2.0,3.0"]


def test_embed_axes_validation_exits_2(tmp_path):
    path = write_series(tmp_path / "s.csv", np.arange(30.0))
    # out of range; too few; too many; repeated
    for axes in ("0,5", "0", "0,1,1,0", "1,1", "0,2,0"):
        with pytest.raises(SystemExit) as exc:
            main(["embed", str(path), "--delay", "1", "--dimension", "3",
                  "--axes", axes])
        assert exc.value.code == 2


def test_fnn_and_pipeline_refuse_a_record_too_fine_for_its_unit(tmp_path, capsys):
    # an outlier of 1e170 leaves the map's differences under 2^-511 of the
    # cloud's scale: one error line, exit 1, where fractions near 1 were printed
    values = henon(3000).values.copy()
    values[1500] = 1e170
    path = write_series(tmp_path / "h.csv", values)
    out = str(tmp_path / "out")
    for argv, prefix in (
        (["fnn", path, "--delay", "1"], "error: "),
        (["pipeline", path, "--output-dir", out], "error in stage 'dimension': "),
    ):
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(prefix + "values ") and "under 2^-511 of its scale 2^565" in line


def test_entropy_bad_r_values_exits_2(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("0.0,0.0\n1.0,1.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["entropy", str(cloud), "--r-values", "0.5,x"])
    assert exc.value.code == 2
    assert "--r-values" in capsys.readouterr().err


def test_entropy_on_a_cloud_file(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("0.0,0.0\n1.0,1.0\n")
    code = main(["entropy", str(cloud), "--r-values", "0.5"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "# delaymap entropy: dimension=2 total=2"
    assert lines[2] == "0.5,1.0,1.0"


def test_entropy_reads_a_quoted_cloud_like_the_plain_one(tmp_path, capsys):
    rows = [(0.0, 0.0), (0.25, 1.0), (1.0, 0.5), (0.75, 0.125)]
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text("".join(f"{x},{y}\n" for x, y in rows))
    quoted.write_text("".join(f'"{x}",{y}\n' if i % 2 else f'"{x}","{y}"\n'
                              for i, (x, y) in enumerate(rows)))
    scalings = []
    for cloud in (plain, quoted):
        assert main(["entropy", str(cloud)]) == 0
        scalings.append(capsys.readouterr().out)
    assert scalings[0] == scalings[1]


def test_entropy_zero_spread_needs_explicit_r(tmp_path, capsys):
    cloud = tmp_path / "flat.csv"
    cloud.write_text("1.0,2.0\n1.0,2.0\n")
    code = main(["entropy", str(cloud)])
    assert code == 1
    assert "zero spread" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, source", [("", "path"), ("# only a comment\n", "path"), ("", "-")],
    ids=["empty-file", "comment-only-file", "empty-stdin"],
)
def test_an_empty_cloud_prints_only_the_typed_error(tmp_path, capsys, monkeypatch, text, source):
    if source == "-":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    else:
        source = tmp_path / "cloud.csv"
        source.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["entropy", str(source)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {source}: empty cloud\n"
    assert not caught


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
    assert capsys.readouterr().err == "error: need >= 3 scaling points to fit, have 2\n"


def test_dimension_refuses_a_scaling_file_with_no_data_row(tmp_path, capsys):
    scaling = tmp_path / "scaling.csv"
    scaling.write_text("# delaymap entropy: dimension=2 total=9\nr,log2_inv_r,S_bits\n")
    assert main(["dimension", str(scaling)]) == 3
    assert capsys.readouterr().err == f"error: {scaling}: no data rows\n"


@pytest.mark.parametrize(
    "stage, flags, code, errors",
    [
        pytest.param(
            ["dimension", "{absent}", "--fit-r-lo", "0.1"], ["--fit-r-lo", "0.1"], 1,
            ["error: fit_r_lo and fit_r_hi must be given together"] * 2, id="fit-half-given",
        ),
        pytest.param(
            ["dimension", "{absent}", "--fit-r-lo", "0.5", "--fit-r-hi", "0.1"],
            ["--fit-r-lo", "0.5", "--fit-r-hi", "0.1"], 1,
            ["error: need 0 < fit_r_lo <= fit_r_hi, got 0.5 and 0.1"] * 2, id="fit-reversed",
        ),
        pytest.param(
            ["dimension", "{absent}", "--fit-r-lo", "0", "--fit-r-hi", "0.1"],
            ["--fit-r-lo", "0", "--fit-r-hi", "0.1"], 1,
            ["error: need 0 < fit_r_lo <= fit_r_hi, got 0.0 and 0.1"] * 2, id="fit-zero",
        ),
        pytest.param(
            ["ami", "{series}", "--t-max", "2"], ["--t-max", "2"], 4, ["", ""],
            id="short-mi-curve",
        ),
        # the pipeline reports too few scaling points as its status, on stdout
        pytest.param(
            ["dimension", "{out}/entropy_scaling.csv"], ["--ladder-steps", "2"], 6,
            ["", "error: need >= 3 scaling points to fit, have 2"], id="two-scaling-rows",
        ),
    ],
)
def test_a_stage_command_and_the_pipeline_apply_one_rule_alike(
    tmp_path, capsys, stage, flags, code, errors
):
    paths = {
        "series": write_series(tmp_path / "henon.csv", henon(1000).values),
        "out": str(tmp_path / "out"),
        "absent": str(tmp_path / "absent.csv"),  # a fit window is refused before any read
    }
    got = []
    # the pipeline first: the stage may read what it wrote
    for argv in (["pipeline", "{series}", "--output-dir", "{out}", *flags], stage):
        exit_code = main([a.format(**paths) for a in argv])
        err = capsys.readouterr().err
        got.append((exit_code, "\n".join(s for s in err.splitlines() if s.startswith("error"))))
    assert got == [(code, errors[0]), (code, errors[1])]


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


@pytest.mark.parametrize("first_row", ["0.5", "nan", "inf,1.0,2.0"])
def test_dimension_rejects_a_numeric_first_row_that_is_no_pair(tmp_path, capsys, first_row):
    # a header is a first row whose first or last cell is not a number
    scaling = tmp_path / "scaling.csv"
    rows = "".join(f"{2.0**-k!r},{float(k)!r},{2.0 * k!r}\n" for k in range(2, 7))
    scaling.write_text(f"{first_row}\n{rows}")
    code = main(["dimension", str(scaling)])
    captured = capsys.readouterr()
    assert code == 3
    assert f"{scaling}:1: " in captured.err and repr(first_row) in captured.err
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
    for edge in ("1e-25", "1e-310"):  # the second overflows float64 as well
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["entropy", str(cloud), "--r-values", edge])
        assert code == 1
        assert "int64" in capsys.readouterr().err
    for edges in ("inf,0.1,0.01", "0.5,nan"):
        assert main(["entropy", str(cloud), "--r-values", edges]) == 1
        assert "box edge must be finite and positive" in capsys.readouterr().err
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
    cloud.write_text(f"# delaymap embed\n0.0,0.0\n0.5,{cell}\n{cell},1.0\n")
    code = main(["entropy", str(cloud)])
    captured = capsys.readouterr()
    assert code == 3
    assert f"{cloud}: non-finite value in data row 2" in captured.err
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


def test_pipeline_on_a_record_scaled_past_float64_squares_writes_the_same_fnn_curve(tmp_path):
    values = henon(500).values
    runs = {}
    for name, scaled in (("plain", values), ("huge", np.ldexp(values, 530))):
        path = write_series(tmp_path / f"{name}.csv", scaled)
        out = tmp_path / name
        assert main(["pipeline", path, "--output-dir", str(out), "--fixed-delay", "1"]) == 0
        runs[name] = (out / "fnn_curve.csv").read_bytes()
    assert runs["huge"] == runs["plain"]


def test_pipeline_names_a_series_range_that_overflows_float64(tmp_path, capsys):
    values = np.where(henon(500).values > 0, 1.7e308, -1.7e308)
    path = write_series(tmp_path / "huge.csv", values)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pipeline", path, "--output-dir", str(tmp_path / "o"), "--fixed-delay", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error in stage 'dimension': the series range overflows float64")
    assert "theiler" not in err
    assert "RuntimeWarning" not in err and not caught


@pytest.mark.parametrize(
    "command",
    [
        ["ami"],
        ["fnn", "--delay", "1"],
        ["pipeline"],
        ["pipeline", "--fixed-delay", "1"],
        ["pipeline", "--fixed-delay", "1", "--fixed-dimension", "2"],
        ["entropy"],
    ],
    ids=["ami", "fnn", "pipeline", "pipeline-fixed-delay", "pipeline-fixed-both", "embed-entropy"],
)
def test_a_series_range_that_overflows_float64_is_named_once(
    tmp_path, capsys, monkeypatch, command
):
    values = np.where(henon(500).values > 0, 1e308, -1e308)
    path = write_series(tmp_path / "huge.csv", values)
    if command[0] == "entropy":  # embed huge.csv | entropy -
        assert main(["embed", path, "--delay", "1", "--dimension", "2"]) == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
        argv = ["entropy", "-"]
    else:
        argv = [command[0], path, *command[1:]]
        if command[0] == "pipeline":
            argv += ["--output-dir", str(tmp_path / "o")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error")
    assert "the series range overflows float64" in err[0]


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


#: every command that reads an input file, with the flags it needs
READERS = [
    ["ami"],
    ["fnn", "--delay", "1"],
    ["embed", "--delay", "1", "--dimension", "2"],
    ["entropy"],
    ["dimension"],
    ["pipeline", "--output-dir", "out"],
]


def assert_reader_exits_3_naming(path, argv, tmp_path, capsys):
    command, *flags = argv
    code = main([command, str(path), *[str(tmp_path / f) if f == "out" else f for f in flags]])
    captured = capsys.readouterr()
    assert code == 3
    assert f"cannot read {path}: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", READERS, ids=lambda argv: argv[0])
def test_every_reader_exits_3_on_text_that_is_not_utf_8(tmp_path, capsys, argv):
    path = tmp_path / "input.csv"
    path.write_bytes(b"0.5,1.0,1.0\n0.25,2.0,\xff2.0\n0.125,3.0,3.0\n0.0625,4.0,4.0\n")
    assert_reader_exits_3_naming(path, argv, tmp_path, capsys)


@pytest.mark.parametrize("argv", READERS, ids=lambda argv: argv[0])
def test_every_reader_exits_3_on_a_bad_byte_met_while_reading(tmp_path, capsys, argv):
    # far past the first chunk the file object decodes, so the error comes
    # up while the reader iterates, not when the file opens
    path = tmp_path / "input.csv"
    path.write_bytes(b"0.5,1.0,1.0\n" * 4000 + b"0.25,2.0,\xff2.0\n")
    assert_reader_exits_3_naming(path, argv, tmp_path, capsys)


@pytest.mark.parametrize("argv", READERS, ids=lambda argv: argv[0])
def test_every_reader_exits_3_on_a_missing_input(tmp_path, capsys, argv):
    assert_reader_exits_3_naming(tmp_path / "absent.csv", argv, tmp_path, capsys)


@pytest.mark.parametrize(
    "content", [b"output_dir = out\nfixed_delay = \xff2\n", None], ids=["not-utf-8", "missing"]
)
def test_an_unreadable_config_exits_1_naming_it(tmp_path, capsys, content):
    series = write_series(tmp_path / "sine.csv", sine(200, 20).values)
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_bytes(content)
    assert main(["pipeline", series, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {cfg}: ")
    assert captured.out == ""
