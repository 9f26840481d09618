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
import operator
import os
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError, SeriesLoadError

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
        values: the observations in acquisition order (read-only float64);
            estimators address them by 0-based array position.
        label: free-text identifier, e.g. the source file/column.
    """

    values: np.ndarray
    label: str = ""

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
    """Value bounds of a series; len(series) is its count."""

    x_min: float
    x_max: float

    def __post_init__(self):
        if self.x_min > self.x_max:
            raise ValueError("x_min exceeds x_max")

    @property
    def value_range(self) -> float:
        span = self.x_max - self.x_min  # Python floats overflow to inf without a warning
        if span == math.inf:
            raise DegenerateSeriesError("the series range overflows float64; rescale the series")
        return span


def stats(series: TimeSeries) -> SeriesStats:
    """Exact minimum and maximum of a series."""
    v = series.values
    return SeriesStats(float(v.min()), float(v.max()))


def load_csv(
    source,
    column: int | str = 0,
    skip_header: bool = False,
    missing_policy: str = MISSING_POLICIES[0],
    delimiter: str = ",",
) -> TimeSeries:
    """Load one column of a CSV file as a TimeSeries labelled
    ``"<file stem>:<column>"`` (``"<stream>:<column>"`` for a nameless stream).

    The format is RFC-4180-style: one observation per row, '.' decimal
    point, optional header row.  Lines starting with '#' are ignored so
    the toolkit's own artifact files round-trip.  Empty cells and "NA"
    are missing observations handled by `missing_policy`:

    - ``drop``: missing rows are removed;
    - ``forward_fill``: a missing value repeats the last finite value
      (the default — for price-like records the last observation stands).

    Leading missing values are always dropped.

    A path is read as one string, a stream as its lines.  The text is
    parsed in up to three passes; the first that succeeds gives the values:

    1. numpy's C reader (``np.loadtxt``) parses the selected column of
       the rows after the header, with no string per cell.  Its number
       parser follows ``float()``.  It declines any text it could read
       otherwise than the csv rules, or cannot read: a quote, a '#'
       after the start of a line, a carriage return outside "\\r\\n", a
       line over ``csv.field_size_limit()`` or an "NA" past the header
       (all found by a scan of the text), a cell of the column that it
       refuses (an empty one included) or reads as non-finite, or no
       data row.
    2. ``csv.reader`` splits the rows and the selected column is parsed
       by one ``np.array(cells, dtype=float)``; this pass serves quoted
       and missing cells.
    3. Should that fail too, the text holds a fault: a row scan reads it
       again and raises the error, naming the offending line.

    Args:
        source: path, or an open text stream.
        column: zero-based index or header name.  Naming a column implies
            the first data row is a header.
        skip_header: skip the first row when selecting by index.
        missing_policy: "drop" or "forward_fill".
        delimiter: field separator, default comma.

    Raises:
        SeriesLoadError: unreadable file, column not found, non-numeric
            cell, or fewer than 2 values after the policy.
    """
    check_missing_policy(missing_policy)
    name, text, lines = _read(source)
    values = _parse_plain(text, lines, column, skip_header, delimiter, name)
    if values is None:
        lines, text = list(lines()), None  # the csv passes read the lines alone
        parsed = _parse_column(lines, column, skip_header, delimiter, name)
        if parsed is None:  # the row scan raises, naming the line of a bad cell or row
            _scan_cells(lines, column, skip_header, delimiter, name)
        values = _apply_missing_policy(*parsed, missing_policy)
    if len(values) < 2:
        raise SeriesLoadError(
            f"{name}: fewer than 2 values after {missing_policy} policy"
        )
    stem = os.path.splitext(os.path.basename(name))[0]
    return TimeSeries(values, label=f"{stem}:{column}")


@contextmanager
def text_lines(source, error=SeriesLoadError):
    """Yield (name, lines) of a path or an open text stream: the lines
    stream as csv.reader iterates them (a path opens as UTF-8 with
    newline=""), less a leading byte-order mark (as spreadsheet "CSV UTF-8"
    exports write).  A source that cannot be opened or read as UTF-8
    raises ``error``, also while the caller iterates."""
    with _opened(source, error) as (name, fh):
        yield name, itertools.chain([fh.readline().removeprefix("\ufeff")], fh)


@contextmanager
def _opened(source, error):
    """Yield (name, open text stream) of a source by text_lines' rules.
    A path's decode error names the bad byte by its offset in the file."""
    stream = hasattr(source, "read")
    name = getattr(source, "name", "<stream>") if stream else os.fspath(source)
    try:
        with nullcontext(source) if stream else open(name, newline="", encoding="utf-8") as fh:
            yield name, fh
    except (OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, UnicodeDecodeError) and not stream:
            try:  # the text layer counts from its 8 KiB chunk, as a stream's error still does
                with open(name, "rb") as raw:
                    raw.read().decode("utf-8")
            except (OSError, UnicodeDecodeError) as whole:
                exc = whole
        raise error(f"cannot read {name}: {exc}") from exc


def _read(source):
    """(name, text, lines): a source's text, and a function that iterates
    its lines as csv.reader reads the source.  A path is read in one
    piece, a stream as the lines its own newline rule splits."""
    if hasattr(source, "read"):
        with text_lines(source) as (name, lines):
            lines = list(lines)
        return name, "".join(lines), lambda: iter(lines)
    with _opened(source, SeriesLoadError) as (name, fh):
        text = fh.read().removeprefix("\ufeff")
    return name, text, lambda: itertools.chain.from_iterable(
        io.StringIO(s, newline="") for s in _slices(text, 0)  # each ends a line
    )


def _parse_plain(text, lines, column, skip_header, delimiter, name):
    """The selected column as parsed by numpy's C reader, or None for
    text that reader could read otherwise than the csv rules, or cannot
    read.  The header and column come from the first data row, split by
    csv.reader from ``lines()`` as in the other passes."""
    reader = csv.reader(lines(), delimiter=delimiter)
    try:
        first = next(filter(_is_data_row, reader), None)
        if first is None:
            return None
        col_idx, header_rows = _resolve_column(first, column, skip_header, name)
    except (csv.Error, SeriesLoadError, ValueError):
        return None
    start = sum(map(len, itertools.islice(lines(), reader.line_num - 1 + header_rows)))
    limit = csv.field_size_limit()
    # numpy refuses a line-end or '#' delimiter, ignores quotes, strips a
    # '#' comment anywhere in a line and has no field size limit.  It
    # refuses a bare '\r' inside a line and an "NA" cell itself, but only
    # after parsing up to them.  A one-character search costs about a
    # hundredth of a two-character one, so each pair is sought only once
    # its first character is found, and "NA" from the first "N" on.
    if (
        delimiter in "\r\n#"
        or text.find('"', start) >= 0
        or text.find("\r", start) >= 0
        and text.count("\r", start) != text.count("\r\n", start)
        or text.find("#", start) >= 0
        and text.count("#", start) != text.count("\n#", start) + text.startswith("#", start)
        or (first_n := text.find("N", start)) >= 0 and text.find("NA", first_n) >= 0
        or any(len(s) > limit for s in _slices(text, start, min(limit, 1 << 16)))
    ):
        return None
    # no bare '\r' is left, so lines end at each '\n'; split a slice at a time
    body = itertools.chain.from_iterable(s.split("\n") for s in _slices(text, start))
    try:
        with warnings.catch_warnings():
            # a body of only comments: "input contained no data"
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(
                body, dtype=np.float64, delimiter=delimiter, comments="#",
                usecols=col_idx, ndmin=1,
            )
    except ValueError:
        return None
    if values.size == 0 or not np.isfinite(values).all():
        return None
    return values


def _slices(text, start, size=1 << 16):
    """text[start:] in slices that end at a '\n', so at a line end, or at
    the end of text: at most size characters, or else one whole line."""
    while start < len(text):
        end = text.rfind("\n", start, start + size) + 1 or text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _parse_column(lines, column, skip_header, delimiter, name):
    """(values of the selected column's present cells, missing mask), the
    cells parsed by one ``np.array``, or None on any fault, which the row
    scan then reports in its own order."""
    # rows are filtered and reduced to one cell on the fly, so no list of
    # rows is ever held
    rows = filter(_is_data_row, csv.reader(lines, delimiter=delimiter))
    try:
        first = next(rows, None)
        if first is None:
            return None
        col_idx, header_rows = _resolve_column(first, column, skip_header, name)
        cells = [row[col_idx].strip() for row in itertools.chain([first][header_rows:], rows)]
        missing = np.array([c in MISSING_MARKERS for c in cells], dtype=bool)
        present = [c for c in cells if c not in MISSING_MARKERS] if missing.any() else cells
        values = np.array(present, dtype=np.float64)
    except (csv.Error, SeriesLoadError, IndexError, ValueError):
        return None
    return (values, missing) if np.isfinite(values).all() else None


def _scan_cells(lines, column, skip_header, delimiter, name):
    """Row scan through csv.reader that raises the error of the first bad
    row or cell, naming its line.  `_parse_column` refuses only a fault
    raised here (numpy parses a cell with ``float()``, as this scan does)."""
    rows = _read_rows(lines, delimiter, name)
    if not rows:
        raise SeriesLoadError(f"{name}: no data rows")
    col_idx, header_rows = _resolve_column(rows[0][1], column, skip_header, name)
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


def check_integer(name: str, value) -> int:
    """``value`` as an int: numpy integers pass, a float such as 2.5 is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_column(column: int | str) -> None:
    """Raise ValueError if ``column`` is a negative or non-integer index."""
    if not isinstance(column, str) and check_integer("column", column) < 0:
        raise ValueError("column index must be nonnegative")


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
