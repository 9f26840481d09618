"""Command-line front end: one subcommand per stage, plus the full run.

Exit codes
    0  success
    1  stage error (bad parameters, degenerate data, I/O trouble)
    2  command-line usage error (argparse)
    3  input series failed to load
    4  no local minimum in the MI curve (fallback delay was used)
    5  no embedding dimension reached the false-neighbor threshold
    6  not enough scaling points to fit a dimension

Commands that read a series accept '-' for stdin; curve CSVs default to
stdout and the one-line JSON summaries to stderr, so the two streams can
be piped independently.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from ._version import __version__
from .boxdim import EntropyScaling, default_r_ladder, entropy_scaling, information_dimension
from .embedding import EmbeddingParams, cloud_from_points, delay_embed
from .errors import DelayMapError, ScalingFitError, SeriesLoadError
from .generators import DEFAULT_TRANSIENT_SKIP, GeneratorSpec, generate
from .mutual import ami_curve, first_local_minimum
from .neighbors import embedding_dimension
from .pipeline import (
    CONFIG_TYPES,
    STATUS_INSUFFICIENT_SCALING,
    STATUS_NO_DIMENSION,
    STATUS_OK,
    PipelineConfig,
    estimate_json,
    fit_range,
    fnn_params,
    parse_key_value_config,
    run_pipeline,
    write_cloud_csv,
    write_fnn_csv,
    write_mi_csv,
    write_rows,
    write_scaling_csv,
)
from .series import MISSING_POLICIES, _read_lines, _read_rows, load_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LOAD_FAILED = 3
EXIT_NO_DELAY_MINIMUM = 4
EXIT_NO_DIMENSION = 5
EXIT_NO_SCALING = 6

_STATUS_CODES = {
    STATUS_OK: EXIT_OK,
    STATUS_NO_DIMENSION: EXIT_NO_DIMENSION,
    STATUS_INSUFFICIENT_SCALING: EXIT_NO_SCALING,
}


@contextmanager
def _out(path, default):
    """Writable text stream for --output or --summary: None means
    `default`, '-' stdout, anything else a file path."""
    if path not in (None, "-"):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    stream = sys.stdout if path == "-" else default
    yield stream
    stream.flush()


def _axes_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad axes list {text!r}") from None


_SERIES_FLAGS = ("column", "skip_header", "missing_policy")
_FLAG_EXTRAS = {
    "column": {"help": "column index, or header name (implies a header row)"},
    "skip_header": {"help": "skip the first row when selecting by index"},
    "missing_policy": {"choices": MISSING_POLICIES},
    "timestamp": {"help": "add a wall-clock stamp to the report (breaks determinism)"},
}


def _add_config_flags(p: argparse.ArgumentParser, names, defaults: bool = True) -> None:
    """Add flag --x-y for each named PipelineConfig field x_y, typed from it.

    With ``defaults`` the flag defaults to the field's default; without,
    to None, so that an unset flag leaves the key to the config file.
    """
    declared = {f.name: f.default for f in fields(PipelineConfig)}
    for name in names:
        flag = "--" + name.replace("_", "-")
        kwargs = {"default": declared[name] if defaults else None, **_FLAG_EXTRAS.get(name, {})}
        if CONFIG_TYPES[name] is bool:
            p.add_argument(flag, action=argparse.BooleanOptionalAction, **kwargs)
        else:
            p.add_argument(flag, type=CONFIG_TYPES[name], **kwargs)


def _load_series(args):
    source = sys.stdin if args.input == "-" else args.input
    return load_csv(source, **{name: getattr(args, name) for name in _SERIES_FLAGS})


def _emit_summary(args, payload: dict) -> None:
    with _out(args.summary, sys.stderr) as out:
        out.write(json.dumps(payload, sort_keys=True) + "\n")


# --------------------------------------------------------------- synth

_SYNTH_PARAMS = {
    "henon": ("a", "b", "x0", "y0"),
    "logistic": ("r", "x0"),
    "lorenz": ("dt", "sigma", "rho", "beta", "initial"),
    "sine": ("period_samples", "amplitude", "phase"),
    "white_noise": ("mean", "stddev"),
}
_SKIPPED_KINDS = ("henon", "logistic", "lorenz")


def _cmd_synth(args, parser):
    kind = args.kind
    allowed = _SYNTH_PARAMS[kind]
    params = {}
    for name in set().union(*_SYNTH_PARAMS.values()):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in allowed:
            parser.error(f"--{name.replace('_', '-')} does not apply to kind {kind!r}")
        params[name] = value
    if "initial" in params:
        parts = params["initial"].split(",")
        if len(parts) != 3:
            parser.error("--initial expects three comma-separated numbers x,y,z")
        params["initial"] = tuple(float(p) for p in parts)
    if kind == "white_noise" and args.seed is None:
        parser.error("white_noise requires --seed")
    if kind != "white_noise" and args.seed is not None:
        parser.error(f"--seed does not apply to kind {kind!r}")
    if kind == "sine" and "period_samples" not in params:
        parser.error("sine requires --period")
    skip = args.skip if args.skip is not None else DEFAULT_TRANSIENT_SKIP
    if args.skip is not None and kind not in _SKIPPED_KINDS:
        parser.error(f"--skip does not apply to kind {kind!r}")
    spec = GeneratorSpec(
        kind=kind, n=args.n, parameters=params, seed=args.seed, transient_skip=skip
    )
    series = generate(spec)
    described = " ".join(
        f"{k}={v}" for k, v in sorted(params.items())
    )
    with _out(args.output, sys.stdout) as out:
        header = f"# delaymap synth: kind={kind} n={args.n}"
        if kind == "white_noise":
            header += f" seed={args.seed}"
        if kind in _SKIPPED_KINDS:
            header += f" skip={skip}"
        if described:
            header += " " + described
        out.write(header + "\n")
        write_rows(out, series.values)
    return EXIT_OK


# ----------------------------------------------------------------- ami

def _cmd_ami(args, parser):
    series = _load_series(args)
    curve = ami_curve(series, t_max=args.t_max, bins=args.j_bins)
    with _out(args.output, sys.stdout) as out:
        write_mi_csv(out, curve, args.j_bins, len(series))
    if len(curve) >= 3:
        sel = first_local_minimum(curve)
        _emit_summary(args, {
            "selected_lag": sel.lag,
            "fallback_used": sel.fallback_used,
            "bits_at_selected": float(curve.bits[sel.lag - 1]),
        })
        return EXIT_NO_DELAY_MINIMUM if sel.fallback_used else EXIT_OK
    _emit_summary(args, {
        "selected_lag": None,
        "fallback_used": None,
        "bits_at_selected": None,
    })
    return EXIT_OK


# ----------------------------------------------------------------- fnn

def _cmd_fnn(args, parser):
    series = _load_series(args)
    params = fnn_params(args)
    selection = embedding_dimension(series, args.delay, params)
    with _out(args.output, sys.stdout) as out:
        write_fnn_csv(out, selection.curve, args.delay, params)
    _emit_summary(args, {
        "selected_m": selection.m_selected,
        "found": selection.found,
    })
    return EXIT_OK if selection.found else EXIT_NO_DIMENSION


# --------------------------------------------------------------- embed

def _cmd_embed(args, parser):
    series = _load_series(args)
    cloud = delay_embed(series, EmbeddingParams(args.delay, args.dimension))
    if args.axes is not None:
        if len(args.axes) not in (2, 3):
            parser.error("--axes takes 2 or 3 comma-separated indices")
        for a in args.axes:
            if not 0 <= a < cloud.n:
                parser.error(f"axis {a} out of range for dimension {cloud.n}")
        axes = args.axes
    else:
        axes = tuple(range(cloud.n))
    with _out(args.output, sys.stdout) as out:
        write_cloud_csv(out, cloud, axes)
    return EXIT_OK


# ------------------------------------------------------------- entropy

def _load_cloud(path):
    source = sys.stdin if path == "-" else path
    try:
        pts = np.loadtxt(source, delimiter=",", comments="#", ndmin=2)
    except OSError as e:
        raise SeriesLoadError(f"cannot read cloud {path}: {e}") from e
    except ValueError as e:
        raise SeriesLoadError(f"bad cloud data in {path}: {e}") from e
    if pts.size == 0:
        raise SeriesLoadError(f"{path}: empty cloud")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise SeriesLoadError(f"{path}: non-finite value in data row {bad[0] + 1}")
    return cloud_from_points(pts)


def _cmd_entropy(args, parser):
    cloud = _load_cloud(args.input)
    if args.r_values is not None:
        try:
            ladder = [float(p) for p in args.r_values.split(",")]
        except ValueError:
            parser.error(f"bad --r-values list {args.r_values!r}")
    else:
        spread = float(np.ptp(cloud.points, axis=0).max())
        if spread <= 0.0:
            raise DelayMapError("cloud has zero spread on every axis; pass --r-values")
        ladder = default_r_ladder(
            spread, args.ladder_steps, args.r_coarse_div, args.r_fine_div
        )
    scaling = entropy_scaling(cloud, ladder)
    with _out(args.output, sys.stdout) as out:
        write_scaling_csv(out, scaling, cloud.n)
    return EXIT_OK


# ----------------------------------------------------------- dimension

def _read_scaling_csv(path) -> list[tuple[float, float]]:
    """(r, S) pairs from the first and last cells of each data row.

    Data rows are those the series loader reads.  Only the first may be a
    header; any later row that is not at least two numeric cells is a
    load error, never silently dropped.
    """
    name, lines = _read_lines(sys.stdin if path == "-" else path)
    entries = []
    for i, (lineno, row) in enumerate(_read_rows(lines, ",", name)):
        try:
            pair = (float(row[0]), float(row[-1])) if len(row) > 1 else None
        except ValueError:
            pair = None
        if pair is not None and not np.isfinite(pair).all():
            raise SeriesLoadError(f"{name}:{lineno}: non-finite scaling row {','.join(row)!r}")
        if pair is not None:
            entries.append(pair)
        elif i:
            raise SeriesLoadError(f"{name}:{lineno}: bad scaling row {','.join(row)!r}")
    return entries


def _cmd_dimension(args, parser):
    try:
        window = fit_range(args.fit_r_lo, args.fit_r_hi)
    except ValueError as e:
        parser.error(str(e))
    entries = _read_scaling_csv(args.input)
    if len(entries) < 3:
        print(
            f"error: need at least 3 scaling entries to fit, found {len(entries)}",
            file=sys.stderr,
        )
        return EXIT_NO_SCALING
    est = information_dimension(EntropyScaling(tuple(entries)), window)
    with _out(args.output, sys.stdout) as out:
        out.write(json.dumps(estimate_json(est), sort_keys=True) + "\n")
    return EXIT_OK


# ------------------------------------------------------------ pipeline

def _cmd_pipeline(args, parser):
    kwargs = {}
    env_dir = os.environ.get("DELAYMAP_OUTPUT_DIR")
    if env_dir:
        kwargs["output_dir"] = env_dir
    if args.config is not None:
        kwargs.update(parse_key_value_config(args.config))
    for name in CONFIG_TYPES:
        value = getattr(args, name)
        if value is not None:
            kwargs[name] = value
    if "input_path" not in kwargs:
        parser.error("no input: give a CSV path or set input_path in the config file")
    config = PipelineConfig(**kwargs)
    report = run_pipeline(config)

    def g(v):
        return format(v, ".6g")

    print(f"status: {report.status}")
    fb = " fallback" if report.delay_fallback_used else ""
    print(f"delay: T={report.selected_delay} ({report.delay_source}{fb})")
    if report.selected_dimension is not None:
        print(f"dimension: n={report.selected_dimension} ({report.dimension_source})")
    else:
        print(f"dimension: none found up to m_max={config.m_max}")
    if report.entropy_bits is not None:
        print(f"entropy: {g(report.entropy_bits)} bits at r={g(report.r_ref)}")
    if report.estimate is not None:
        e = report.estimate
        print(
            f"D_I: {g(e.d_i)} (r^2={g(e.r_squared)}, {e.points_used} points, "
            f"r in [{g(e.fit_range[0])}, {g(e.fit_range[1])}])"
        )
    print(f"report: {os.path.join(config.output_dir, 'report.json')}")

    code = _STATUS_CODES[report.status]
    if code == EXIT_OK and report.delay_fallback_used:
        code = EXIT_NO_DELAY_MINIMUM
    return code


# ---------------------------------------------------------- the parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaymap",
        description="Delay-coordinate reconstruction and information-dimension toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark series")
    p.add_argument("--kind", required=True, choices=sorted(_SYNTH_PARAMS))
    p.add_argument("-n", type=int, required=True, help="series length")
    p.add_argument("--seed", type=int, help="noise seed (white_noise only)")
    p.add_argument("--skip", type=int, help="transient samples to discard (maps/flows)")
    for flag, typ in (
        ("a", float), ("b", float), ("x0", float), ("y0", float), ("r", float),
        ("dt", float), ("sigma", float), ("rho", float), ("beta", float),
        ("amplitude", float), ("phase", float), ("mean", float), ("stddev", float),
    ):
        p.add_argument(f"--{flag}", type=typ, default=None, help=argparse.SUPPRESS)
    p.add_argument("--initial", default=None, help="lorenz start point x,y,z")
    p.add_argument("--period", dest="period_samples", type=int, default=None,
                   help="sine period in samples")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ami", help="mutual-information curve and delay choice")
    p.add_argument("input", help="series CSV path, or '-' for stdin")
    _add_config_flags(p, (*_SERIES_FLAGS, "t_max", "j_bins"))
    p.add_argument("--output", default="-", help="curve CSV ('-' = stdout)")
    p.add_argument("--summary", default=None, help="JSON summary (default stderr)")
    p.set_defaults(func=_cmd_ami)

    p = sub.add_parser("fnn", help="false-neighbor curve and dimension choice")
    p.add_argument("input", help="series CSV path, or '-' for stdin")
    _add_config_flags(p, (*_SERIES_FLAGS, "m_max", "r_tol", "theiler_window", "fnn_threshold"))
    p.add_argument("--delay", type=int, required=True)
    p.add_argument("--output", default="-")
    p.add_argument("--summary", default=None)
    p.set_defaults(func=_cmd_fnn)

    p = sub.add_parser("embed", help="write the delay-coordinate point cloud")
    p.add_argument("input", help="series CSV path, or '-' for stdin")
    _add_config_flags(p, _SERIES_FLAGS)
    p.add_argument("--delay", type=int, required=True)
    p.add_argument("--dimension", type=int, required=True)
    p.add_argument("--axes", type=_axes_arg, default=None,
                   help="project onto 2 or 3 axes, e.g. 0,1")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("entropy", help="box entropies S(r) of a point cloud")
    p.add_argument("input", help="cloud CSV (embed output), or '-'")
    p.add_argument("--r-values", default=None,
                   help="explicit comma-separated box edges, coarse to fine")
    _add_config_flags(p, ("ladder_steps", "r_coarse_div", "r_fine_div"))
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("dimension", help="fit D_I from an entropy scaling CSV")
    p.add_argument("input", help="scaling CSV (entropy output), or '-'")
    _add_config_flags(p, ("fit_r_lo", "fit_r_hi"))
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser("pipeline", help="full run: delay, dimension, entropy, D_I")
    p.add_argument("input_path", nargs="?", default=None, metavar="input",
                   help="series CSV (may instead come from --config)")
    p.add_argument("--config", default=None, help="key=value config file")
    _add_config_flags(p, [n for n in CONFIG_TYPES if n != "input_path"], defaults=False)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except SeriesLoadError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_LOAD_FAILED
    except ScalingFitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_SCALING
    except BrokenPipeError:
        return EXIT_ERROR
    except (DelayMapError, ValueError, OSError) as e:
        stage = getattr(e, "stage", None)
        where = f" in stage '{stage}'" if stage else ""
        print(f"error{where}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
