"""Command-line front end: one subcommand per stage, plus the full run.

Exit codes
    0  success
    1  stage error (bad parameters, degenerate data, I/O trouble, a
       request too large to allocate)
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
import warnings
from contextlib import contextmanager
from dataclasses import fields
from typing import get_args, get_origin

# The neighbour scan keeps each band's product within neighbors._SCAN_PRODUCT,
# which OpenBLAS runs on one thread; a one-row band past it took as much CPU as
# wall time with two threads (white noise, n = 20 000, m = 16).  OpenBLAS would
# still start a worker thread that spins idle for the whole process.  numpy's and
# scipy's bundled OpenBLAS read this when they load; a value the caller set wins.
# Only the command sets it: importing the library leaves os.environ alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from ._version import __version__
from .boxdim import EntropyScaling, default_r_ladder, entropy_scaling, information_dimension
from .embedding import EmbeddingParams, check_axes, cloud_from_points, delay_embed
from .errors import DelayMapError, ScalingFitError, SeriesLoadError
from .generators import GENERATORS, SETTINGS, SettingError, generate
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
from .series import MISSING_POLICIES, SeriesStats, _read_rows, load_csv, text_lines

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


def _flag_type(hint):
    """The flag type of an annotation: the type itself, but a tuple reads
    comma-separated text, one value per element (any count for tuple[X, ...])."""
    kinds = get_args(hint)

    def parse(text):
        parts = text.split(",")
        types = kinds[:1] * len(parts) if kinds[-1] is Ellipsis else kinds
        try:
            if len(parts) == len(types):
                return tuple(kind(part) for kind, part in zip(types, parts))
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"bad list {text!r}, need {hint}")

    return parse if get_origin(hint) is tuple else hint


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


def _source(path):
    """What a reader opens for an input argument: '-' means stdin."""
    return sys.stdin if path == "-" else path


def _load_series(args):
    return load_csv(_source(args.input), **{name: getattr(args, name) for name in _SERIES_FLAGS})


def _emit_summary(args, payload: dict) -> None:
    with _out(args.summary, sys.stderr) as out:
        out.write(json.dumps(payload, sort_keys=True) + "\n")


# --------------------------------------------------------------- synth

#: generator setting -> synth flag (two are shortened), in catalogue order
_SYNTH_FLAGS = {
    name: "--" + {"period_samples": "period", "transient_skip": "skip"}.get(name, name)
    for settings in SETTINGS.values() for name in settings
}


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    """One flag per generator setting, typed by its annotation."""
    for name, flag in _SYNTH_FLAGS.items():
        uses = [(kind, s[name]) for kind, s in SETTINGS.items() if name in s]
        shown = ["required" if q.default is q.empty else q.default for _, q in uses]
        p.add_argument(flag, dest=name, metavar=flag[2:].upper(),
                       type=_flag_type(uses[0][1].annotation),
                       help="; ".join(f"{kind}: {d}" for (kind, _), d in zip(uses, shown)))


def _cmd_synth(args, parser):
    kind = args.kind
    given = {k: getattr(args, k) for k in _SYNTH_FLAGS if getattr(args, k) is not None}
    try:
        series = generate(kind, args.n, **given)
    except SettingError as e:
        flag = _SYNTH_FLAGS[e.setting]
        parser.error(f"{kind} requires {flag}" if e.missing else f"{kind} does not take {flag}")
    # seed and skip come first, the skip shown even at its default
    first = [k for k in ("seed", "transient_skip") if k in SETTINGS[kind]]
    shown = [f"{_SYNTH_FLAGS[k][2:]}={given.get(k, SETTINGS[kind][k].default)}" for k in first]
    shown += [f"{k}={v}" for k, v in sorted(given.items()) if k not in first]
    with _out(args.output, sys.stdout) as out:
        out.write(" ".join([f"# delaymap synth: kind={kind} n={args.n}", *shown]) + "\n")
        write_rows(out, series.values)
    return EXIT_OK


# ----------------------------------------------------------------- ami

def _cmd_ami(args, parser):
    series = _load_series(args)
    curve = ami_curve(series, t_max=args.t_max, bins=args.j_bins)
    with _out(args.output, sys.stdout) as out:
        write_mi_csv(out, curve, args.j_bins, len(series))
    sel = first_local_minimum(curve)
    _emit_summary(args, {
        "selected_lag": sel.lag,
        "fallback_used": sel.fallback_used,
        "bits_at_selected": float(curve.bits[sel.lag - 1]),
    })
    return EXIT_NO_DELAY_MINIMUM if sel.fallback_used else EXIT_OK


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
        try:
            check_axes(cloud, args.axes)
        except ValueError as e:
            parser.error(f"--axes: {e}")
    with _out(args.output, sys.stdout) as out:
        write_cloud_csv(out, cloud, args.delay, args.axes or tuple(range(cloud.n)))
    return EXIT_OK


# ------------------------------------------------------------- entropy

def _load_cloud(path):
    try:
        with text_lines(_source(path)) as (_, lines), warnings.catch_warnings():
            # an empty cloud is reported below, without numpy's warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            pts = np.loadtxt(lines, delimiter=",", comments="#", quotechar='"', ndmin=2)
    except ValueError as e:
        raise SeriesLoadError(f"bad cloud data in {path}: {e}") from e
    if pts.size == 0:
        raise SeriesLoadError(f"{path}: empty cloud")
    if not np.isfinite(pts).all():
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]
        raise SeriesLoadError(f"{path}: non-finite value in data row {bad + 1}")
    return cloud_from_points(pts)


def _cmd_entropy(args, parser):
    cloud = _load_cloud(args.input)
    ladder = args.r_values
    if ladder is None:
        # per column (an axis-0 reduction is far slower), and an overflow refused by name
        spread = max(
            SeriesStats(float(col.min()), float(col.max())).value_range for col in cloud.points.T
        )
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

    Data rows are those the series loader reads.  The first is a header
    when its first or last cell is not a number; any other row that is not
    at least two finite numeric cells, or a file with no data row, is a
    load error, never dropped.
    """
    with text_lines(_source(path)) as (name, lines):
        rows = _read_rows(lines, ",", name)
    entries = []
    for i, (lineno, row) in enumerate(rows):
        try:
            pair = (float(row[0]), float(row[-1]))
        except ValueError:
            if not i:
                continue  # the header
            pair = None
        if pair is None or len(row) < 2:
            raise SeriesLoadError(f"{name}:{lineno}: bad scaling row {','.join(row)!r}")
        if not np.isfinite(pair).all():
            raise SeriesLoadError(f"{name}:{lineno}: non-finite scaling row {','.join(row)!r}")
        entries.append(pair)
    if not entries:
        raise SeriesLoadError(f"{name}: no data rows")
    return entries


def _cmd_dimension(args, parser):
    window = fit_range(args.fit_r_lo, args.fit_r_hi)  # checked before the file is read
    scaling = EntropyScaling(tuple(_read_scaling_csv(args.input)))
    est = information_dimension(scaling, window)
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
    p.add_argument("--kind", required=True, choices=sorted(GENERATORS))
    p.add_argument("-n", type=int, required=True, help="series length")
    _add_synth_flags(p)
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
    p.add_argument("--axes", type=_flag_type(tuple[int, ...]), default=None,
                   help="project onto 2 or 3 axes, e.g. 0,1")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("entropy", help="box entropies S(r) of a point cloud")
    p.add_argument("input", help="cloud CSV (embed output), or '-'")
    p.add_argument("--r-values", type=_flag_type(tuple[float, ...]), default=None,
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

    # a command's own usage errors print that command's usage line
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, args.parser)
    except SeriesLoadError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_LOAD_FAILED
    except ScalingFitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_SCALING
    except BrokenPipeError:
        return EXIT_ERROR
    except (DelayMapError, ValueError, OSError, MemoryError) as e:
        stage = getattr(e, "stage", None)
        where = f" in stage '{stage}'" if stage else ""
        print(f"error{where}: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
