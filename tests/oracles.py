"""Independent slow-path reference implementations used by the tests.

Everything here is deliberately written in plain Python loops and dicts,
with no numpy vectorization and in a different accumulation order than
the library, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from delaymap.errors import SeriesLoadError


def mi_recount(values, lag: int, bins: int) -> float:
    """Naive double-loop mutual information in bits.

    Bins exactly as the library defines them (equal width over the full
    series range, last bin right-closed) but counts pairs one by one into
    dicts and sums the MI terms in sorted-cell order.
    """
    values = [float(v) for v in values]
    lo = min(values)
    hi = max(values)
    if hi == lo:
        raise ValueError("constant series")
    width = (hi - lo) / bins

    def cell(v: float) -> int:
        return min(math.floor((v - lo) / width), bins - 1)

    n = len(values)
    total = n - lag
    joint: dict[tuple[int, int], int] = {}
    for t in range(total):
        key = (cell(values[t]), cell(values[t + lag]))
        joint[key] = joint.get(key, 0) + 1

    row: dict[int, int] = {}
    col: dict[int, int] = {}
    for (h, k), c in joint.items():
        row[h] = row.get(h, 0) + c
        col[k] = col.get(k, 0) + c

    out = 0.0
    for (h, k), c in sorted(joint.items()):
        p_hk = c / total
        p_h = row[h] / total
        p_k = col[k] / total
        out += p_hk * math.log2(p_hk / (p_h * p_k))
    return out


def nn_scan(points, t: int, w: int) -> tuple[int, float]:
    """Nearest neighbor of point t by a sequential scan.

    Excludes |i - t| <= w; distance ties go to the smaller index (the scan
    order guarantees it).  Returns (-1, inf) when nothing is admissible.
    """
    best = -1
    best_d = math.inf
    for i in range(len(points)):
        if abs(i - t) <= w:
            continue
        acc = 0.0
        for a, b in zip(points[i], points[t]):
            d = float(a) - float(b)
            acc += d * d
        dist = math.sqrt(acc)
        if dist < best_d:
            best_d = dist
            best = i
    return best, best_d


def fnn_recount(values, delay: int, m: int, r_tol: float, w: int):
    """False-neighbor fraction by direct per-point loops.

    Returns (fraction, tested, skipped) with the same conventions as the
    library: only points with an (m+1)-th coordinate are candidates, the
    neighbor search runs over that same restricted set, zero-distance
    pairs are false iff the appended coordinates differ.
    """
    values = [float(v) for v in values]
    n = len(values)
    count = n - (m - 1) * delay            # full cloud size
    limit = n - m * delay                  # points with the next coordinate
    pts = [[values[i + k * delay] for k in range(m)] for i in range(limit)]
    tested = 0
    false_ct = 0
    for t in range(limit):
        i, dist = nn_scan(pts, t, w)
        if i < 0:
            continue
        tested += 1
        numer = abs(values[i + m * delay] - values[t + m * delay])
        if dist == 0.0:
            if numer > 0.0:
                false_ct += 1
        elif numer / dist > r_tol:
            false_ct += 1
    skipped = count - tested
    if tested == 0:
        raise ValueError("no testable points")
    return false_ct / tested, tested, skipped


def box_scan(points, r: float) -> dict[tuple[int, ...], int]:
    """O(N*B) box occupancy by scalar arithmetic, one point at a time."""
    pts = [[float(c) for c in p] for p in points]
    dims = len(pts[0])
    anchor = [min(p[k] for p in pts) for k in range(dims)]
    counts: dict[tuple[int, ...], int] = {}
    for p in pts:
        key = tuple(math.floor((p[k] - anchor[k]) / r) for k in range(dims))
        counts[key] = counts.get(key, 0) + 1
    return counts


def reference_chain(values, t_max: int, m_max: int) -> dict:
    """The default pipeline (16 bins, R_tol = 10, threshold 0.01, w = T,
    the 16-step ladder) recounted from the slow paths above.

    Returns delay, fallback, dimension (None when no m up to m_max
    crosses), status, entropy_bits at range/256 and d_i: the slope of every
    window whose r^2 lies within 1e-12 of the best, the best by the tie
    rule first (rounding may order such windows either way).
    """
    values = [float(v) for v in values]
    n = len(values)
    bits = [mi_recount(values, lag, 16) for lag in range(1, t_max + 1)]
    delay, fallback = bits.index(min(bits)) + 1, True
    for k in range(1, len(bits) - 1):
        if bits[k - 1] > bits[k] <= bits[k + 1]:
            delay, fallback = k + 1, False
            break
    out = {"delay": delay, "fallback": fallback, "dimension": None,
           "status": "no_dimension_found", "entropy_bits": None, "d_i": None}
    for m in range(1, m_max + 1):
        if fnn_recount(values, delay, m, 10.0, delay)[0] <= 0.01:
            break
    else:
        return out
    pts = [[values[i + k * delay] for k in range(m)] for i in range(n - (m - 1) * delay)]
    span = max(values) - min(values)
    # the ladder is a definition, not a rule under test
    ladder = [float(r) for r in np.geomspace(span / 4.0, span / 512.0, 16)]
    fits = fit_windows(ladder, [box_entropy(pts, r) for r in ladder])
    best = fits[0][0][0]
    out.update(dimension=m, status="ok", entropy_bits=box_entropy(pts, span / 256.0),
               d_i=[slope for (r2, _, _), slope in fits if r2 >= best - 1e-12])
    return out


def box_entropy(pts, r: float) -> float:
    """S(r) in bits of the `box_scan` occupancy."""
    return -sum(c / len(pts) * math.log2(c / len(pts)) for c in box_scan(pts, r).values())


def fit_windows(ladder, ys) -> list:
    """((r^2, width, finest reach), slope) of every run of >= 3 scales of
    a coarse-to-fine ladder, best first by the tie rule: highest r^2, then
    the wider window, then the one reaching finer scales."""
    xs = [-math.log2(r) for r in ladder]
    fits = []
    for width in range(3, len(ladder) + 1):
        for s in range(len(ladder) - width + 1):
            x, y = xs[s : s + width], ys[s : s + width]
            xm, ym = sum(x) / width, sum(y) / width
            sxy = sum((a - xm) * (b - ym) for a, b in zip(x, y))
            slope = sxy / sum((a - xm) ** 2 for a in x)
            ss_tot = sum((b - ym) ** 2 for b in y)
            ss_res = sum((b - ym - slope * (a - xm)) ** 2 for a, b in zip(x, y))
            r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot  # a flat window scores 0
            fits.append(((r2, width, -ladder[s + width - 1]), slope))
    fits.sort(reverse=True)
    return fits


_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_M64 = (1 << 64) - 1


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """The pinned 64-bit stream, computed with Python integers only."""
    out = []
    for i in range(1, count + 1):
        z = (seed + i * _GOLDEN) & _M64
        z = ((z ^ (z >> 30)) * _MIX1) & _M64
        z = ((z ^ (z >> 27)) * _MIX2) & _M64
        z = z ^ (z >> 31)
        out.append(z)
    return out


def gaussian_draws(seed: int, n: int) -> list[float]:
    """Reference Box-Muller pairs from the pinned uniform stream."""
    pairs = (n + 1) // 2
    zs = splitmix64_stream(seed, 2 * pairs)
    out = []
    for j in range(pairs):
        u1 = (zs[2 * j] >> 11) * 2.0**-53 + 2.0**-53
        u2 = (zs[2 * j + 1] >> 11) * 2.0**-53
        rad = math.sqrt(-2.0 * math.log(u1))
        out.append(rad * math.cos(2.0 * math.pi * u2))
        out.append(rad * math.sin(2.0 * math.pi * u2))
    return out[:n]


def load_csv_rows(
    source,
    column=0,
    skip_header=False,
    missing_policy="forward_fill",
    delimiter=",",
):
    """The series loader as a csv.reader row scan: (values, label).

    One row at a time through csv.reader and float(), with missing cells
    held as None until the policy runs; the same errors, messages
    included, as delaymap.load_csv.
    """
    if missing_policy not in ("forward_fill", "drop"):
        raise ValueError(f"unknown missing_policy {missing_policy!r}")

    def read_rows(stream):
        out = []
        reader = csv.reader(stream, delimiter=delimiter)
        try:
            lineno = 1  # the file line the next row starts on
            for row in reader:
                if row and any(c.strip() for c in row) and not row[0].lstrip().startswith("#"):
                    out.append((lineno, row))
                lineno = reader.line_num + 1
        except csv.Error as exc:
            raise SeriesLoadError(f"{name}:{reader.line_num}: {exc}") from exc
        return out

    name = getattr(source, "name", "<stream>") if hasattr(source, "read") else os.fspath(source)
    try:
        if hasattr(source, "read"):
            rows = read_rows(source)
        else:
            with open(name, "r", newline="", encoding="utf-8") as fh:
                rows = read_rows(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise SeriesLoadError(f"cannot read {name}: {exc}") from exc
    if not rows:
        raise SeriesLoadError(f"{name}: no data rows")

    if isinstance(column, str):
        header = [c.strip() for c in rows[0][1]]
        try:
            col_idx = header.index(column)
        except ValueError:
            raise SeriesLoadError(
                f"{name}: column {column!r} not found in header {header}"
            ) from None
        rows = rows[1:]
    else:
        col_idx = int(column)
        if col_idx < 0:
            raise ValueError("column index must be nonnegative")
        if skip_header:
            rows = rows[1:]

    raw = []
    for lineno, row in rows:
        if col_idx >= len(row):
            raise SeriesLoadError(f"{name}:{lineno}: row has no column {col_idx}")
        cell = row[col_idx].strip()
        if cell in ("", "NA"):
            raw.append(None)
            continue
        try:
            value = float(cell)
        except ValueError as exc:
            raise SeriesLoadError(f"{name}:{lineno}: non-numeric cell {cell!r}") from exc
        if not math.isfinite(value):
            raise SeriesLoadError(f"{name}:{lineno}: non-finite value {cell!r}")
        raw.append(value)

    start = 0
    while start < len(raw) and raw[start] is None:
        start += 1
    values = []
    for v in raw[start:]:
        if v is not None:
            values.append(v)
        elif missing_policy == "forward_fill":
            values.append(values[-1])
    if len(values) < 2:
        raise SeriesLoadError(f"{name}: fewer than 2 values after {missing_policy} policy")
    stem = os.path.splitext(os.path.basename(name))[0]
    return values, f"{stem}:{column}"
