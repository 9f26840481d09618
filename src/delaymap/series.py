"""Scalar observation series: the input record every estimator consumes.

A :class:`TimeSeries` is an immutable, validated wrapper around a 1-D float64
array.  Values are kept at full precision exactly as loaded; no normalization
is ever applied implicitly.  Calendar time is not modeled — all downstream
algorithms work on the sample index.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import SeriesLoadError

__all__ = ["TimeSeries", "SeriesStats", "load_csv", "series_from_text", "stats"]

#: Cell contents treated as "no observation" during CSV ingestion.
MISSING_MARKERS = ("", "NA")
FORWARD_FILL = "forward_fill"
DROP = "drop"
#: How missing observations are handled; the first is the default.
MISSING_POLICIES = (FORWARD_FILL, DROP)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A finite scalar observation record.

    Attributes:
        values: the observations in acquisition order (read-only float64).
        label: free-text identifier, e.g. the source file/column.
        sample_index_origin: index assigned to the first sample (metadata
            only; estimators always work with 0-based array positions).
    """

    values: np.ndarray
    label: str = ""
    sample_index_origin: int = 0

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"series must be 1-D, got shape {arr.shape}")
        if arr.size < 2:
            raise ValueError(f"series needs at least 2 values, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"non-finite value at position {bad}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SeriesStats:
    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.x_min > self.x_max:
            raise ValueError("x_min exceeds x_max")

    @property
    def value_range(self) -> float:
        return self.x_max - self.x_min


def stats(series: TimeSeries) -> SeriesStats:
    """Exact minimum, maximum and count of a series."""
    v = series.values
    return SeriesStats(float(v.min()), float(v.max()), int(v.size))


def load_csv(
    source,
    column: int | str = 0,
    skip_header: bool = False,
    missing_policy: str = MISSING_POLICIES[0],
    delimiter: str = ",",
    label: str | None = None,
) -> TimeSeries:
    """Load one column of a CSV file as a TimeSeries.

    The format is RFC-4180-style: one observation per row, '.' decimal
    point, optional header row.  Lines starting with '#' are ignored so
    the toolkit's own artifact files round-trip.  Empty cells and "NA"
    are missing observations handled by `missing_policy`:

    - ``drop``: missing rows are removed;
    - ``forward_fill``: a missing value repeats the last finite value
      (the default — for price-like records the last observation stands).

    Leading missing values are always dropped.

    Args:
        source: path, or an open text stream.
        column: zero-based index or header name.  Naming a column implies
            the first data row is a header.
        skip_header: skip the first row when selecting by index.
        missing_policy: "drop" or "forward_fill".
        delimiter: field separator, default comma.
        label: override the series label (defaults to file stem / column).

    Raises:
        SeriesLoadError: unreadable file, column not found, non-numeric
            cell, or fewer than 2 values after the policy.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ValueError(f"unknown missing_policy {missing_policy!r}")

    if hasattr(source, "read"):
        name = getattr(source, "name", "<stream>")
        rows = _read_rows(source, delimiter)
    else:
        name = os.fspath(source)
        try:
            with open(name, "r", newline="", encoding="utf-8") as fh:
                rows = _read_rows(fh, delimiter)
        except OSError as exc:
            raise SeriesLoadError(f"cannot read {name}: {exc}") from exc

    if not rows:
        raise SeriesLoadError(f"{name}: no data rows")

    col_idx, rows = _resolve_column(rows, column, skip_header, name)

    raw: list[float | None] = []
    for lineno, row in rows:
        if col_idx >= len(row):
            raise SeriesLoadError(f"{name}:{lineno}: row has no column {col_idx}")
        cell = row[col_idx].strip()
        if cell in MISSING_MARKERS:
            raw.append(None)
            continue
        try:
            value = float(cell)
        except ValueError as exc:
            raise SeriesLoadError(f"{name}:{lineno}: non-numeric cell {cell!r}") from exc
        if not math.isfinite(value):
            raise SeriesLoadError(f"{name}:{lineno}: non-finite value {cell!r}")
        raw.append(value)

    values = _apply_missing_policy(raw, missing_policy)
    if len(values) < 2:
        raise SeriesLoadError(
            f"{name}: fewer than 2 values after {missing_policy} policy"
        )
    if label is None:
        stem = os.path.splitext(os.path.basename(name))[0]
        label = f"{stem}:{column}"
    return TimeSeries(np.array(values), label=label)


def _read_rows(stream, delimiter):
    """Return [(lineno, row), ...] skipping blank and '#'-comment lines."""
    out = []
    reader = csv.reader(stream, delimiter=delimiter)
    for lineno, row in enumerate(reader, start=1):
        if not row or all(c.strip() == "" for c in row):
            continue
        if row[0].lstrip().startswith("#"):
            continue
        out.append((lineno, row))
    return out


def _resolve_column(rows, column, skip_header, name):
    if isinstance(column, str):
        header = [c.strip() for c in rows[0][1]]
        try:
            idx = header.index(column)
        except ValueError:
            raise SeriesLoadError(
                f"{name}: column {column!r} not found in header {header}"
            ) from None
        return idx, rows[1:]
    idx = int(column)
    if idx < 0:
        raise ValueError("column index must be nonnegative")
    return idx, rows[1:] if skip_header else rows


def _apply_missing_policy(raw, policy):
    # leading missing values are dropped under either policy
    start = 0
    while start < len(raw) and raw[start] is None:
        start += 1
    values: list[float] = []
    for v in raw[start:]:
        if v is not None:
            values.append(v)
        elif policy == FORWARD_FILL:
            values.append(values[-1])
        # drop: skip
    return values


def series_from_text(text: str, **kwargs) -> TimeSeries:
    """Convenience wrapper: parse CSV content already held in memory."""
    return load_csv(io.StringIO(text), **kwargs)
