"""The end-to-end run: load, pick T, pick n, embed, measure S(r), fit D_I.

Each stage writes its artifact as soon as it completes, so a run that
stops early still leaves every diagnostic computed up to that point on
disk.  Three outcomes are results, not errors, and are carried in the
report's status instead of raising: the delay falling back to the global
minimum, no dimension reaching the false-neighbor threshold, and too few
scaling points for the dimension fit.  Anything else propagates as an
exception tagged with the stage name.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from typing import TextIO, get_args, get_type_hints

import numpy as np

from ._version import __version__
from .boxdim import (
    DEFAULT_LADDER_STEPS, DEFAULT_R_COARSE_DIV, DEFAULT_R_FINE_DIV, REFERENCE_R_DIV,
    DimensionEstimate, EntropyScaling, default_r_ladder, entropy_scaling,
    information_dimension, partition_boxes, reference_r, shannon_entropy,
)
from .embedding import EmbeddingParams, PointCloud, delay_embed
from .errors import ScalingFitError
from .mutual import DEFAULT_BINS, MICurve, ami_curve, check_bins, check_t_max, first_local_minimum
from .neighbors import FnnCurve, FnnParams, embedding_dimension
from .series import (
    MISSING_POLICIES, check_column, check_missing_policy, load_csv, stats, text_lines,
)

__all__ = [
    "PipelineConfig",
    "PipelineReport",
    "run_pipeline",
    "parse_key_value_config",
    "coerce_config_value",
    "STATUS_OK",
    "STATUS_NO_DIMENSION",
    "STATUS_INSUFFICIENT_SCALING",
]

STATUS_OK = "ok"
STATUS_NO_DIMENSION = "no_dimension_found"
STATUS_INSUFFICIENT_SCALING = "insufficient_scaling_points"

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob that can influence a number in the report.

    fixed_delay / fixed_dimension skip the corresponding estimator stage
    entirely (no curve artifact is produced for a skipped stage).  The
    r ladder is specified as divisors of the data range: edges run
    geometrically from range/r_coarse_div down to range/r_fine_div in
    ladder_steps steps, and the headline entropy is read at
    range/r_ref_div.

    Each default is the one the owning stage's module declares, and the
    command line derives its flags, types and defaults from these fields.
    """

    input_path: str
    column: int | str = 0
    skip_header: bool = False
    missing_policy: str = MISSING_POLICIES[0]
    j_bins: int = DEFAULT_BINS
    t_max: int | None = None
    m_max: int = FnnParams.m_max
    r_tol: float = FnnParams.r_tol
    theiler_window: int | None = FnnParams.theiler_window
    fnn_threshold: float = FnnParams.fnn_threshold
    ladder_steps: int = DEFAULT_LADDER_STEPS
    r_coarse_div: float = DEFAULT_R_COARSE_DIV
    r_fine_div: float = DEFAULT_R_FINE_DIV
    r_ref_div: float = REFERENCE_R_DIV
    fit_r_lo: float | None = None
    fit_r_hi: float | None = None
    fixed_delay: int | None = None
    fixed_dimension: int | None = None
    output_dir: str = "."
    timestamp: bool = False

    def __post_init__(self):
        # paths as str, numbers for float keys as float: the report then reads as the CLI's
        for name in ("input_path", "output_dir"):
            object.__setattr__(self, name, os.fspath(getattr(self, name)))
        for name, kind in CONFIG_TYPES.items():
            if kind is float and isinstance(getattr(self, name), (int, np.number)):
                object.__setattr__(self, name, float(getattr(self, name)))
        # each key is checked by the function that uses it
        check_column(self.column)
        check_missing_policy(self.missing_policy)
        check_bins(self.j_bins)
        check_t_max(1 if self.t_max is None else self.t_max)
        fnn_params(self)
        default_r_ladder(1.0, self.ladder_steps, self.r_coarse_div, self.r_fine_div)
        reference_r(1.0, self.r_ref_div)
        fit_range(self.fit_r_lo, self.fit_r_hi)
        fixed = (self.fixed_delay, self.fixed_dimension)
        EmbeddingParams(*(1 if v is None else v for v in fixed))


@dataclass
class PipelineReport:
    """What one run found, built once the series is loaded and filled in
    by each stage as it finishes; a stage skipped or never reached leaves
    its fields at their defaults."""

    config: PipelineConfig
    n_samples: int
    series_label: str
    timestamp: str | None = None
    status: str | None = None
    selected_delay: int | None = None
    delay_fallback_used: bool = False
    delay_source: str = "ami"
    selected_dimension: int | None = None
    dimension_source: str = "fnn"
    entropy_bits: float | None = None
    r_ref: float | None = None
    estimate: DimensionEstimate | None = None
    artifacts: dict[str, str] = field(default_factory=dict)

    @property
    def dimension_found(self) -> bool:
        return self.selected_dimension is not None

    def to_json(self) -> str:
        """report.json's text, with numpy scalars written as plain numbers."""
        est = None if self.estimate is None else estimate_json(self.estimate)
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "toolkit_version": __version__,
            "status": self.status,
            "input": {
                "path": self.config.input_path,
                "column": self.config.column,
                "n_samples": self.n_samples,
                "label": self.series_label,
            },
            "config": asdict(self.config),
            "delay": {
                "selected": self.selected_delay,
                "fallback_used": self.delay_fallback_used,
                "source": self.delay_source,
            },
            "dimension": {
                "selected": self.selected_dimension,
                "found": self.dimension_found,
                "source": self.dimension_source,
            },
            "entropy": {
                "r_ref": self.r_ref,
                "bits": self.entropy_bits,
            },
            "information_dimension": est,
            "artifacts": {**self.artifacts, "report": "report.json"},  # lists itself
        }
        if self.timestamp is not None:
            doc["generated_at"] = self.timestamp
        return json.dumps(doc, sort_keys=True, indent=2, default=lambda v: v.item()) + "\n"


def fit_range(r_lo: float | None, r_hi: float | None) -> tuple[float, float] | None:
    """The explicit D_I fit window, or None to let the fit choose one."""
    if (r_lo is None) != (r_hi is None):
        raise ValueError("fit_r_lo and fit_r_hi must be given together")
    if r_lo is None:
        return None
    if not 0 < r_lo <= r_hi:
        raise ValueError(f"need 0 < fit_r_lo <= fit_r_hi, got {r_lo} and {r_hi}")
    return (r_lo, r_hi)


def fnn_params(source) -> FnnParams:
    """FnnParams from the like-named attributes of a config or parsed flags."""
    return FnnParams(**{f.name: getattr(source, f.name) for f in fields(FnnParams)})


def estimate_json(est: DimensionEstimate) -> dict:
    """The D_I fit as it appears in report.json and `delaymap dimension`."""
    return {
        "D_I": float(est.d_i),
        "intercept": float(est.intercept),
        "r_squared": float(est.r_squared),
        "fit_range": [float(v) for v in est.fit_range],
        "points_used": int(est.points_used),
    }


def _fmt(v) -> str:
    """CSV cell: the shortest decimal that reads back as the same float."""
    return repr(float(v))


def write_mi_csv(out: TextIO, curve: MICurve, j_bins: int, n_samples: int) -> None:
    out.write(f"# delaymap ami: j_bins={j_bins} t_max={len(curve)} n_samples={n_samples}\n")
    out.write("lag,bits\n")
    for lag, bits in curve.entries():
        out.write(f"{lag},{_fmt(bits)}\n")


def write_fnn_csv(out: TextIO, curve: FnnCurve, delay: int, params: FnnParams) -> None:
    out.write(
        f"# delaymap fnn: delay={delay} r_tol={_fmt(params.r_tol)} "
        f"theiler_window={params.window(delay)} threshold={_fmt(params.fnn_threshold)}\n"
    )
    out.write("m,fraction,tested,skipped\n")
    for e in curve.entries:
        out.write(f"{e.m},{_fmt(e.fraction)},{e.tested_points},{e.skipped_points}\n")


def repr_cells(values: np.ndarray) -> np.ndarray:
    """``repr`` of every float in ``values``, as an object array of the
    same shape: _fmt's shortest round-trip form.

    ``repr`` runs once per distinct bit pattern (a delay cloud repeats
    each sample in every coordinate); keying on the int64 view keeps -0.0
    apart from 0.0.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    keys, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
    return texts[inverse].reshape(np.shape(values))


#: rows formatted per write, which bounds the text held at once
_ROWS_PER_WRITE = 4096


def write_rows(out: TextIO, block: np.ndarray) -> None:
    """One CSV line per row of a float array (a 1-D array is one column),
    cells in repr form, one write per slab of rows."""
    for start in range(0, len(block), _ROWS_PER_WRITE):
        cells = repr_cells(block[start : start + _ROWS_PER_WRITE])
        # rows are joined from one list per column: a list per row would
        # be a container the garbage collector tracks, and enough of them
        # set off full collections
        lines = cells.tolist() if cells.ndim == 1 else map(",".join, zip(*cells.T.tolist()))
        out.write("\n".join(lines) + "\n")


def write_cloud_csv(out: TextIO, cloud: PointCloud, delay: int, axes: tuple[int, ...]) -> None:
    out.write(
        f"# delaymap embed: delay={delay} dimension={cloud.n} "
        f"count={len(cloud)} axes={','.join(str(a) for a in axes)}\n"
    )
    for start in range(0, len(cloud), _ROWS_PER_WRITE):  # no copy of the whole cloud
        write_rows(out, cloud.points[start : start + _ROWS_PER_WRITE, list(axes)])


def write_scaling_csv(out: TextIO, scaling: EntropyScaling, dimension: int) -> None:
    out.write(f"# delaymap entropy: dimension={dimension} total={scaling.total}\n")
    out.write("r,log2_inv_r,S_bits\n")
    for r, s in scaling.entries:
        out.write(f"{_fmt(r)},{_fmt(-np.log2(r))},{_fmt(s)}\n")


def _write_artifact(report: PipelineReport, name: str, writer) -> None:
    """Write one file into the output directory and list it on the report."""
    path = os.path.join(report.config.output_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer(fh)
    report.artifacts[os.path.splitext(name)[0]] = name


@contextmanager
def _stage(name: str):
    """Tag an exception escaping the block with the stage name."""
    try:
        yield
    except BaseException as exc:
        if not hasattr(exc, "stage"):
            with suppress(AttributeError):  # not every exception takes attributes
                exc.stage = name
        raise


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Run every stage the config asks for and write all artifacts.

    Returns the report the stages filled in; its ``status`` tells a clean
    run from the two early stops (no embedding dimension found, not
    enough scaling points).  Load failures and unexpected stage errors
    raise, with a ``stage`` attribute naming where it happened.
    """
    os.makedirs(config.output_dir, exist_ok=True)

    with _stage("load"):
        series = load_csv(
            config.input_path,
            column=config.column,
            skip_header=config.skip_header,
            missing_policy=config.missing_policy,
        )
        series_stats = stats(series)
    report = PipelineReport(config, len(series), series.label)
    if config.timestamp:
        report.timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")

    def finish(status: str) -> PipelineReport:
        """Write report.json for a run that ends here, and return the report."""
        report.status = status
        # rendered first, so a failed render leaves no empty report.json
        text = report.to_json()
        _write_artifact(report, "report.json", lambda fh: fh.write(text))
        return report

    if config.fixed_delay is not None:
        report.selected_delay, report.delay_source = config.fixed_delay, "fixed"
    else:
        with _stage("delay"):
            curve = ami_curve(series, t_max=config.t_max, bins=config.j_bins)
            selection = first_local_minimum(curve)
            report.selected_delay = selection.lag
            report.delay_fallback_used = selection.fallback_used
            _write_artifact(
                report,
                "mi_curve.csv",
                lambda fh: write_mi_csv(fh, curve, config.j_bins, len(series)),
            )

    if config.fixed_dimension is not None:
        report.selected_dimension, report.dimension_source = config.fixed_dimension, "fixed"
    else:
        with _stage("dimension"):
            fnn = fnn_params(config)
            selection = embedding_dimension(series, report.selected_delay, fnn)
            _write_artifact(
                report,
                "fnn_curve.csv",
                lambda fh: write_fnn_csv(fh, selection.curve, report.selected_delay, fnn),
            )
            if not selection.found:
                return finish(STATUS_NO_DIMENSION)
            report.selected_dimension = selection.m_selected

    with _stage("embed"):
        params = EmbeddingParams(report.selected_delay, report.selected_dimension)
        cloud = delay_embed(series, params)
        axes = tuple(range(min(cloud.n, 3)))
        _write_artifact(
            report, "attractor.csv", lambda fh: write_cloud_csv(fh, cloud, params.delay, axes)
        )

    with _stage("entropy"):
        vr = series_stats.value_range
        ladder = default_r_ladder(
            vr, config.ladder_steps, config.r_coarse_div, config.r_fine_div
        )
        scaling = entropy_scaling(cloud, ladder)
        _write_artifact(
            report,
            "entropy_scaling.csv",
            lambda fh: write_scaling_csv(fh, scaling, cloud.n),
        )
        report.r_ref = reference_r(vr, config.r_ref_div)
        report.entropy_bits = shannon_entropy(partition_boxes(cloud, report.r_ref))

    with _stage("dimension_fit"):
        try:
            report.estimate = information_dimension(
                scaling, fit_range(config.fit_r_lo, config.fit_r_hi)
            )
        except ScalingFitError:
            return finish(STATUS_INSUFFICIENT_SCALING)
    return finish(STATUS_OK)


def _index_or_name(text: str) -> int | str:
    """A column: plain digits are an index, anything else a header name."""
    return int(text) if text.isdigit() else text


def _value_type(hint):
    """What a config value's text is read as: X for ``X | None``; the one
    two-type field, ``column: int | str``, reads as an index or a name."""
    kinds = [t for t in get_args(hint) if t is not type(None)] or [hint]
    return kinds[0] if len(kinds) == 1 else _index_or_name


#: Each PipelineConfig field's value type, read off its annotation.
CONFIG_TYPES = {
    name: _value_type(hint) for name, hint in get_type_hints(PipelineConfig).items()
}


def coerce_config_value(name: str, text: str):
    """Parse one key=value right-hand side into the config field's type.

    ``column`` reads plain digits as an index and anything else as a
    header name; booleans accept 1/true/yes/on and 0/false/no/off.
    """
    if name not in CONFIG_TYPES:
        raise ValueError(f"unknown config key {name!r}")
    text = text.strip()
    kind = CONFIG_TYPES[name]
    if kind is bool:
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{name}: expected a boolean, got {text!r}")
    return kind(text)


def parse_key_value_config(path: str) -> dict:
    """Read a key=value config file ('#' starts a comment) into typed values.
    An unreadable file raises ValueError: a config is not the input series."""
    out = {}
    with text_lines(path, ValueError) as (_, lines):
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            try:
                out[key] = coerce_config_value(key, value)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    return out
