"""Scalar observation series: the input record every estimator consumes.

A :class:`TimeSeries` is an immutable, validated wrapper around a 1-D float64
array.  Values are kept at full precision exactly as loaded; no normalization
is ever applied implicitly.  Calendar time is not modeled — all downstream
algorithms work on the sample index.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from contextlib import contextmanager, nullcontext
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

    ``csv.reader`` splits the rows and the selected column is parsed by
    one ``np.array(cells, dtype=float)``, whose string parser follows
    ``float()``.  Should that pass fail, a row scan reads the text again
    and raises the error, naming the offending line.

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
    check_missing_policy(missing_policy)
    with text_lines(source) as (name, lines):
        lines = list(lines)
    parsed = _parse_column(lines, column, skip_header, delimiter, name)
    if parsed is None:  # the row scan names the line of a bad cell or row
        parsed = _parse_cells(_scan_cells(lines, column, skip_header, delimiter, name))
    values = _apply_missing_policy(*parsed, missing_policy)
    if len(values) < 2:
        raise SeriesLoadError(
            f"{name}: fewer than 2 values after {missing_policy} policy"
        )
    if label is None:
        stem = os.path.splitext(os.path.basename(name))[0]
        label = f"{stem}:{column}"
    return TimeSeries(values, label=label)


@contextmanager
def text_lines(source, error=SeriesLoadError):
    """Yield (name, lines) of a path or an open text stream: the lines
    stream as csv.reader iterates them (a path opens as UTF-8 with
    newline=""), less a leading byte-order mark (as spreadsheet "CSV UTF-8"
    exports write).  A source that cannot be opened or read as UTF-8
    raises ``error``, also while the caller iterates."""
    stream = hasattr(source, "read")
    name = getattr(source, "name", "<stream>") if stream else os.fspath(source)
    try:
        with nullcontext(source) if stream else open(name, newline="", encoding="utf-8") as fh:
            first = fh.readline().removeprefix("\ufeff")
            yield name, itertools.chain([first], fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {name}: {exc}") from exc


def _parse_column(lines, column, skip_header, delimiter, name):
    """_parse_cells of the selected column's stripped cells, or None on
    any fault, which the row scan then reports in its own order."""
    # rows are filtered and reduced to one cell on the fly, so no list of
    # rows is ever held
    rows = filter(_is_data_row, csv.reader(lines, delimiter=delimiter))
    try:
        first = next(rows, None)
        if first is None:
            return None
        col_idx, header_rows = _resolve_column(first, column, skip_header, name)
        cells = [row[col_idx].strip() for row in itertools.chain([first][header_rows:], rows)]
    except (csv.Error, SeriesLoadError, IndexError, ValueError):
        return None
    return _parse_cells(cells)


def _scan_cells(lines, column, skip_header, delimiter, name):
    """Row scan through csv.reader: the stripped cells of the selected
    column, each checked, so that an error names its line."""
    rows = _read_rows(lines, delimiter, name)
    if not rows:
        raise SeriesLoadError(f"{name}: no data rows")
    col_idx, header_rows = _resolve_column(rows[0][1], column, skip_header, name)
    cells = []
    for lineno, row in rows[header_rows:]:
        if col_idx >= len(row):
            raise SeriesLoadError(f"{name}:{lineno}: row has no column {col_idx}")
        cell = row[col_idx].strip()
        if cell not in MISSING_MARKERS:
            try:
                value = float(cell)
            except ValueError as exc:
                raise SeriesLoadError(f"{name}:{lineno}: non-numeric cell {cell!r}") from exc
            if not math.isfinite(value):
                raise SeriesLoadError(f"{name}:{lineno}: non-finite value {cell!r}")
        cells.append(cell)
    return cells


def _read_rows(lines, delimiter, name):
    """Return [(lineno, row), ...] skipping blank and '#'-comment lines.

    lineno is the file line a row starts on, so a quoted cell that spans
    lines does not shift the numbers of the rows after it.  A line
    csv.reader cannot split (one over its field size limit, or a bare
    carriage return inside a line) raises SeriesLoadError naming it.
    """
    out = []
    reader = csv.reader(lines, delimiter=delimiter)
    try:
        lineno = 1
        for row in reader:
            if _is_data_row(row):
                out.append((lineno, row))
            lineno = reader.line_num + 1
    except csv.Error as exc:
        raise SeriesLoadError(f"{name}:{reader.line_num}: {exc}") from exc
    return out


def _is_data_row(row):
    """Whether a row has a nonblank cell and is not a '#' comment."""
    # a nonblank first cell settles both, so most rows strip one cell only
    first = row[0].strip() if row else ""
    return first[:1] != "#" if first else any(map(str.strip, row))


def _resolve_column(first_row, column, skip_header, name):
    """(column index, header rows to skip) from the first data row."""
    if isinstance(column, str):
        header = [c.strip() for c in first_row]
        try:
            idx = header.index(column)
        except ValueError:
            raise SeriesLoadError(
                f"{name}: column {column!r} not found in header {header}"
            ) from None
        return idx, 1
    check_column(column)
    return int(column), 1 if skip_header else 0


def check_column(column: int | str) -> None:
    """Raise ValueError if ``column`` is a negative index."""
    if not isinstance(column, str) and int(column) < 0:
        raise ValueError("column index must be nonnegative")


def _parse_cells(cells):
    """(values of the present cells, missing mask) in one numpy parse, or
    None if a present cell is not a finite number."""
    missing = np.array([c in MISSING_MARKERS for c in cells], dtype=bool)
    present = [c for c in cells if c not in MISSING_MARKERS] if missing.any() else cells
    try:
        values = np.array(present, dtype=np.float64)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return values, missing


def check_missing_policy(policy: str) -> None:
    if policy not in MISSING_POLICIES:
        raise ValueError(f"unknown missing_policy {policy!r}")


def _apply_missing_policy(values, missing, policy):
    # leading missing values are dropped under either policy; drop keeps
    # just the present values, forward_fill repeats the last one
    if policy == FORWARD_FILL:
        last = np.cumsum(~missing) - 1
        return values[last[last >= 0]]
    return values


def series_from_text(text: str, **kwargs) -> TimeSeries:
    """Convenience wrapper: parse CSV content already held in memory."""
    return load_csv(io.StringIO(text), **kwargs)
