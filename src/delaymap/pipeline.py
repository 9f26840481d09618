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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
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
from .mutual import DEFAULT_BINS, MICurve, ami_curve, first_local_minimum
from .neighbors import FnnCurve, FnnParams, embedding_dimension
from .series import MISSING_POLICIES, TimeSeries, load_csv, stats

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
        if self.ladder_steps < 2:
            raise ValueError("ladder_steps must be >= 2")
        if not 0 < self.r_coarse_div < self.r_fine_div:
            raise ValueError("need 0 < r_coarse_div < r_fine_div (coarse to fine)")
        if self.r_ref_div <= 0:
            raise ValueError("r_ref_div must be positive")
        fit_range(self.fit_r_lo, self.fit_r_hi)
        fnn_params(self)  # FnnParams checks the FNN keys
        if self.missing_policy not in MISSING_POLICIES:
            raise ValueError(
                f"missing_policy must be one of {', '.join(MISSING_POLICIES)}, "
                f"got {self.missing_policy!r}"
            )
        if self.fixed_delay is not None and self.fixed_delay < 1:
            raise ValueError("fixed_delay must be >= 1")
        if self.fixed_dimension is not None and self.fixed_dimension < 1:
            raise ValueError("fixed_dimension must be >= 1")


@dataclass
class PipelineReport:
    status: str
    config: PipelineConfig
    n_samples: int
    series_label: str
    selected_delay: int | None
    delay_fallback_used: bool
    delay_source: str
    selected_dimension: int | None
    dimension_found: bool
    dimension_source: str
    entropy_bits: float | None
    r_ref: float | None
    estimate: DimensionEstimate | None
    artifacts: dict[str, str]
    timestamp: str | None

    def to_json(self) -> str:
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
            "config": _jsonable(asdict(self.config)),
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
            "artifacts": self.artifacts,
        }
        if self.timestamp is not None:
            doc["generated_at"] = self.timestamp
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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


def _jsonable(value):
    """Recursively turn numpy scalars into plain Python numbers."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _fmt(v) -> str:
    """CSV cell: shortest round-trip decimal for floats, plain for ints."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_mi_csv(out: TextIO, curve: MICurve, j_bins: int, n_samples: int) -> None:
    out.write(f"# delaymap ami: j_bins={j_bins} t_max={curve.lags[-1]} n_samples={n_samples}\n")
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


def write_cloud_csv(out: TextIO, cloud: PointCloud, axes: tuple[int, ...]) -> None:
    p = cloud.params
    out.write(
        f"# delaymap embed: delay={p.delay} dimension={p.dimension} "
        f"count={len(cloud)} axes={','.join(str(a) for a in axes)}\n"
    )
    write_rows(out, cloud.points[:, list(axes)])


def write_scaling_csv(out: TextIO, scaling: EntropyScaling, dimension: int) -> None:
    out.write(f"# delaymap entropy: dimension={dimension} total={scaling.total}\n")
    out.write("r,log2_inv_r,S_bits\n")
    for r, s in scaling.entries:
        out.write(f"{_fmt(r)},{_fmt(-np.log2(r))},{_fmt(s)}\n")


def _write_artifact(directory: str, name: str, writer) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer(fh)
    return name


@contextmanager
def _stage(name: str):
    """Tag an exception escaping the block with the stage name."""
    try:
        yield
    except BaseException as exc:
        if not hasattr(exc, "stage"):
            try:
                exc.stage = name
            except AttributeError:
                pass
        raise


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Run every stage the config asks for and write all artifacts.

    Returns a report whose ``status`` distinguishes a clean run from the
    two early stops (no embedding dimension found, not enough scaling
    points).  Load failures and unexpected stage errors raise; the
    exception carries a ``stage`` attribute naming where it happened.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    artifacts: dict[str, str] = {}
    stamp = (
        datetime.now(timezone.utc).isoformat(timespec="seconds")
        if config.timestamp
        else None
    )

    with _stage("load"):
        series = load_csv(
            config.input_path,
            column=config.column,
            skip_header=config.skip_header,
            missing_policy=config.missing_policy,
        )
        series_stats = stats(series)

    delay_fallback = False
    if config.fixed_delay is not None:
        delay = config.fixed_delay
        delay_source = "fixed"
    else:
        with _stage("delay"):
            curve = ami_curve(series, t_max=config.t_max, bins=config.j_bins)
            selection = first_local_minimum(curve)
            delay = selection.lag
            delay_fallback = selection.fallback_used
            artifacts["mi_curve"] = _write_artifact(
                config.output_dir,
                "mi_curve.csv",
                lambda fh: write_mi_csv(fh, curve, config.j_bins, len(series)),
            )
        delay_source = "ami"

    def finish(status, dimension=None, dim_source="fnn",
               entropy_bits=None, r_ref=None, estimate=None) -> PipelineReport:
        """Write report.json for a run that ends here, and return the report."""
        artifacts["report"] = "report.json"
        rep = PipelineReport(
            status=status,
            config=config,
            n_samples=len(series),
            series_label=series.label,
            selected_delay=delay,
            delay_fallback_used=delay_fallback,
            delay_source=delay_source,
            selected_dimension=dimension,
            dimension_found=dimension is not None,
            dimension_source=dim_source,
            entropy_bits=entropy_bits,
            r_ref=r_ref,
            estimate=estimate,
            artifacts=artifacts,
            timestamp=stamp,
        )
        _write_artifact(config.output_dir, "report.json", lambda fh: fh.write(rep.to_json()))
        return rep

    fnn = fnn_params(config)

    if config.fixed_dimension is not None:
        dimension = config.fixed_dimension
        dim_source = "fixed"
    else:
        with _stage("dimension"):
            selection = embedding_dimension(series, delay, fnn)
            artifacts["fnn_curve"] = _write_artifact(
                config.output_dir,
                "fnn_curve.csv",
                lambda fh: write_fnn_csv(fh, selection.curve, delay, fnn),
            )
            if not selection.found:
                return finish(STATUS_NO_DIMENSION)
            dimension = selection.m_selected
        dim_source = "fnn"

    with _stage("embed"):
        cloud = delay_embed(series, EmbeddingParams(delay, dimension))
        axes = tuple(range(min(dimension, 3)))
        artifacts["attractor"] = _write_artifact(
            config.output_dir,
            "attractor.csv",
            lambda fh: write_cloud_csv(fh, cloud, axes),
        )

    with _stage("entropy"):
        vr = series_stats.value_range
        ladder = default_r_ladder(
            vr, config.ladder_steps, config.r_coarse_div, config.r_fine_div
        )
        scaling = entropy_scaling(cloud, ladder)
        artifacts["entropy_scaling"] = _write_artifact(
            config.output_dir,
            "entropy_scaling.csv",
            lambda fh: write_scaling_csv(fh, scaling, dimension),
        )
        r_ref = reference_r(vr, config.r_ref_div)
        entropy_bits = shannon_entropy(partition_boxes(cloud, r_ref))

    with _stage("dimension_fit"):
        try:
            estimate = information_dimension(
                scaling, fit_range(config.fit_r_lo, config.fit_r_hi)
            )
            status = STATUS_OK
        except ScalingFitError:
            estimate, status = None, STATUS_INSUFFICIENT_SCALING

    return finish(status, dimension, dim_source, entropy_bits, r_ref, estimate)


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
    """Read a key=value config file ('#' starts a comment) into typed values."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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
