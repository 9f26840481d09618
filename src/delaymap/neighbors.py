"""False nearest neighbors: how many coordinates until neighbors are real.

For each point X_t of the m-dimensional reconstruction, take its exact
nearest neighbor X_i (Euclidean distance, temporal band |i-t| <= w
excluded, distance ties broken by the smaller index) and form

    R_i = |x_{i+mT} - x_{t+mT}| / ||X_i - X_t||

the growth of the separation when the (m+1)-th coordinate is appended.
The pair is a *false* neighbor when R_i > R_tol: the points were close in
m dimensions only because the attractor was still folded onto itself.
The embedding dimension is the smallest m whose false fraction is
negligible.

Zero-distance neighbors follow the continuity limit of the ratio: a pair
at distance 0 is false when the appended coordinates differ (R_i = inf)
and a true neighbor when they coincide; such points stay in the tested
tally (nothing is skipped for them).

The neighbor search has three exact routes with one contract (the same
index and distance arrays, bit for bit): a sorted-projection sweep, a
blocked scan over all pairs and a k-d tree, tried in that order.  A
probe that reads only the cloud and the window finds the nearest
neighbors of a few evenly spaced rows by brute force, with no tree.
Where few points lie within those distances along the widest axis, as
in a map's low-m embedding, the sweep runs; it serves the whole cloud or
gives it up once its pair budget would run out.  A cloud the sweep does
not serve goes to the scan when it is small (at most ``_SCAN_PAIRS``
pairs, n <= 5 792), so a short record never loads ``scipy.spatial``,
whose import alone costs more than such a scan.  A larger one goes to
the scan when its neighbors are about as far as a typical pair: in a
high-m embedding of a noise-like record the nearest distance approaches
the typical pair distance (Beyer et al., "When is 'nearest neighbor'
meaningful?", 1999) and the tree ends up visiting nearly every pair.
The probe's contrast, the median nearest distance over the RMS pair
distance, measures that.  Every other cloud goes to the tree, and so
does a cloud whose scale could overflow the scan's sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingParams, delay_embed
from .errors import DegenerateSeriesError, NoAdmissibleNeighborError
from .series import TimeSeries, stats

__all__ = [
    "FnnParams",
    "FnnEntry",
    "FnnCurve",
    "DimensionSelection",
    "fnn_fraction",
    "embedding_dimension",
]

#: Largest pair count n^2 (n <= 5 792) for which a cloud the sweep did not
#: finish takes the scan instead of the tree, so a short record never
#: imports scipy.spatial (0.14-0.24 s after numpy).  FNN stage of one fresh
#: process, white noise m = 1..8, sweep at m = 1 then the scan vs the tree
#: plus its import (2-vCPU host, one BLAS thread, median of 3): 77 vs 230 ms
#: at n = 3 000, 174 vs 315 at 5 000, 298 vs 410 at 7 000, 499 vs 434 at
#: 8 000 and 809 vs 600 at 10 000, so the crossover lies near n = 7 000-8 000
#: and 2^25 leaves margin.
_SCAN_PAIRS = 1 << 25
#: Evenly spaced rows whose nearest-neighbor distances the route probe reads.
_PROBE_ROWS = 32
#: Largest mean probe count (see `_probe`) for which the projection sweep
#: runs first.  Henon n = 10 000 predicts 2-19 pairs a row at m = 1..4;
#: Lorenz n = 50 000 at T = 17 and white noise predict 55-1 650.
_SWEEP_PREDICTED = 32
#: Candidate pairs per point the sweep may examine before it gives the cloud
#: up: a count, so the route never depends on the host's speed.
_SWEEP_BUDGET = 64
#: Relative margin of the sweep's stop rule, far above its rounding error.
_SWEEP_MARGIN = 1e-12
#: Probe contrast from which the scan runs.  On white noise the scan
#: overtakes the k-d tree at a contrast of about 0.26 for n = 3 000 and
#: about 0.33 for n = 10 000 (its cost grows as n^2); this lies between.
_SCAN_CONTRAST = 0.3
#: Largest multiply-add count of one block product: OpenBLAS runs a product
#: this small on one thread, and its extra threads cost more CPU than they
#: save wall time on products this thin.
_SCAN_PRODUCT = 1 << 18
_FLOAT_MAX = np.finfo(np.float64).max
#: Dimensions the sweep evaluates past the selected m, so the curve shows
#: the false fraction staying down after the crossing.
_CONFIRM_DIMS = 2


@dataclass(frozen=True)
class FnnParams:
    """Knobs of the false-neighbor estimator.

    theiler_window=None means "use the embedding delay T"; pass 0 to
    disable temporal exclusion entirely.  m_max is the highest dimension
    the sweep may try; it stops earlier once a dimension is selected.
    """

    r_tol: float = 10.0
    theiler_window: int | None = None
    fnn_threshold: float = 0.01
    m_max: int = 20

    def __post_init__(self):
        if not self.r_tol > 0:
            raise ValueError(f"r_tol must be > 0, got {self.r_tol}")
        if not 0.0 <= self.fnn_threshold <= 1.0:
            raise ValueError(f"fnn_threshold must lie in [0,1], got {self.fnn_threshold}")
        if self.theiler_window is not None and self.theiler_window < 0:
            raise ValueError("theiler_window must be >= 0")
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")

    def window(self, delay: int) -> int:
        """The Theiler window in effect at this delay: w = T when unset."""
        return delay if self.theiler_window is None else self.theiler_window


@dataclass(frozen=True)
class FnnEntry:
    """One curve row: dimension, false fraction, and the point bookkeeping.

    ``skipped_points`` counts cloud points that got no verdict: those
    without an (m+1)-th series coordinate plus any whose temporal band
    swallowed every candidate neighbor.
    """

    m: int
    fraction: float
    tested_points: int
    skipped_points: int

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction {self.fraction} outside [0,1]")


@dataclass(frozen=True)
class FnnCurve:
    entries: tuple[FnnEntry, ...]

    def __post_init__(self):
        ms = [e.m for e in self.entries]
        if not ms or ms[0] != 1 or any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("curve dimensions must increase strictly from 1")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DimensionSelection:
    """Outcome of the dimension sweep.

    ``found`` is False when no dimension up to m_max pushed the false
    fraction under the threshold; ``m_selected`` is then None, ``curve``
    runs to m_max and the caller may retry with a larger m_max.  When a
    dimension is found, ``curve`` ends ``_CONFIRM_DIMS`` (two) dimensions
    past it, or at m_max.
    """

    m_selected: int | None
    curve: FnnCurve

    @property
    def found(self) -> bool:
        return self.m_selected is not None


def _nearest(points: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest neighbor of every point of a cloud of at least 2
    points, by the first route that serves it (see the module docstring).

    The mean squared pair distance, pair_sq = 2 mean(sq) over the
    `_centred` rows, gates the scan: its sums stay below 2 n pair_sq, and
    its rounding-slack proof needs 4 n pair_sq finite and positive.  A
    cloud that fails that (its scale overflows, or it has no spread) takes
    the tree (`_bulk_nearest`).  Otherwise `_sweep_nearest` runs when
    `_probe` predicts at most ``_SWEEP_PREDICTED`` pairs per row; a cloud it
    skips or gives up takes the scan (`_dense_nearest`, handed the same c
    and sq) when it has at most ``_SCAN_PAIRS`` pairs or its contrast
    reaches ``_SCAN_CONTRAST``, and the tree otherwise.
    """
    n = len(points)
    c, sq = _centred(points)
    with np.errstate(over="ignore"):
        pair_sq = 2.0 * float(sq.mean())
    if not 0.0 < 4.0 * n * pair_sq < np.inf:
        return _bulk_nearest(points, w)
    axis = int(np.argmax([col.max() - col.min() for col in points.T]))  # the widest
    contrast, predicted = _probe(c, sq, points[:, axis], w, pair_sq)
    if predicted <= _SWEEP_PREDICTED:
        found = _sweep_nearest(points, w, axis, _SWEEP_BUDGET * n)
        if found is not None:
            return found
    if n * n <= _SCAN_PAIRS or contrast >= _SCAN_CONTRAST:
        return _dense_nearest(points, w, c, sq)
    return _bulk_nearest(points, w)


def _centred(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cloud less its mean, c, and each row's squared norm sq = c_i.c_i.
    A cloud too large in scale gives inf or nan there, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        # column by column: an axis-0 mean over a narrow array is far slower
        c = points - np.array([col.mean() for col in points.T])
        return c, np.einsum("ij,ij->i", c, c)


def _probe(
    c: np.ndarray, sq: np.ndarray, key: np.ndarray, w: int, pair_sq: float
) -> tuple[float, float]:
    """(contrast, predicted sweep pairs per row) from the admissible nearest
    distances of ``_PROBE_ROWS`` evenly spaced rows, by brute force over the
    `_centred` cloud (c, sq).

    The contrast is their median over the RMS pair distance sqrt(pair_sq),
    or 0 (keep the tree) when no probe row has an admissible neighbor.  The
    prediction is the mean count of points whose ``key`` coordinate lies
    within a probe row's nearest distance of its own; the sweep along that
    axis examined 1.7-2 times that many pairs per row on every cloud tried.
    """
    n = len(c)
    rows = np.unique(np.linspace(0, n - 1, _PROBE_ROWS).astype(np.int64))
    # squared distances one row at a time to keep temporaries small: a
    # route estimate needs the same value every run, not the exact distance
    nearest, within = np.empty(rows.size), 0
    for k, r in enumerate(rows):
        d2 = sq - 2.0 * (c @ c[r])
        d2[max(0, r - w) : r + w + 1] = np.inf
        nearest[k] = np.sqrt(max(d2.min() + sq[r], 0.0))
        within += np.count_nonzero(np.abs(key - key[r]) <= nearest[k])
    found = np.sort(nearest[np.isfinite(nearest)])
    # the median by hand: the first np.median call imports numpy.ma (20 ms)
    median = (found[(found.size - 1) // 2] + found[found.size // 2]) / 2 if found.size else 0.0
    return float(median) / np.sqrt(pair_sq), within / rows.size


def _sweep_nearest(
    points: np.ndarray, w: int, axis: int, budget: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact nearest neighbor of every point by a sorted-projection sweep
    (Friedman, Baskett & Shustek, IEEE Trans. Computers C-24, 1975).

    Returns `_bulk_nearest`'s arrays, or None once the next offset would
    take the candidate pairs past ``budget``.  The points are sorted
    along ``axis``.  At offset k = 1, 2, ... each sorted position p is paired
    with p + k while p's upward or p + k's downward side is open.  Pairs in
    the temporal band are skipped; each other pair's `_tree_distance` is
    offered to both rows, which keep the least (distance, index).
    """
    n, m = points.shape
    key = points[:, axis]
    order = np.argsort(key, kind="stable")
    key, sp = key[order], points[order]
    best, reach = np.full(n, np.inf), np.full(n, np.inf)
    who = np.full(n, -1)  # the best's original index; -1 never ties an inf best
    up, down = np.arange(n - 1), np.arange(1, n)  # positions with that side open
    in_up = np.ones(n, dtype=bool)  # membership of up, so a pair is examined once
    # Stop rule: a side closes once the key gap g to its next candidate
    # exceeds reach = max(best * margin, 2^-511).  g is computed from the
    # same two coordinates as the axis's term of `_tree_distance`, so it is
    # that term's |difference| exactly, and farther positions have gaps of
    # at least g (rounding is monotone).  Past 2^-511 the square is normal;
    # with u the unit roundoff, the rounded sum of non-negative squares
    # loses at most a factor (1 - u)^(m + 6) and the root (1 - u), so each
    # candidate past the gap lies at least g (1 - (m/2 + 5) u) away.  As
    # margin (1 - (m/2 + 5) u) > 1, that is strictly farther than the row's
    # best, which only shrinks: it can neither win nor tie.  One that could
    # tie (g <= best * margin) is examined, so an equal distance at a
    # smaller index is never missed.  margin is 1 + 1e-12 up to m of about
    # 4 500 and grows with m past that.
    margin = 1.0 + max(_SWEEP_MARGIN, (m + 10) * np.finfo(np.float64).eps)
    floor = np.sqrt(np.finfo(np.float64).tiny)
    for k in range(1, n):
        lo = down - k
        p = np.concatenate((up, lo[~in_up[lo]]))
        if not p.size:  # every side closed
            break
        if p.size > budget:
            return None
        budget -= p.size
        p = p[np.abs(order[p] - order[p + k]) > w]
        dist = _tree_distance(sp[p], sp[p + k])
        for row, other in ((p, order[p + k]), (p + k, order[p])):
            win = (dist < best[row]) | ((dist == best[row]) & (other < who[row]))
            row, dist_w = row[win], dist[win]
            best[row], who[row] = dist_w, other[win]
            reach[row] = np.maximum(dist_w * margin, floor)
        keep = (up + k + 1 < n) & (key[np.minimum(up + k + 1, n - 1)] - key[up] <= reach[up])
        in_up[up[~keep]] = False
        up = up[keep]
        down = down[(down > k) & (key[down] - key[np.maximum(down - k - 1, 0)] <= reach[down])]
    back = np.argsort(order)  # each row's sorted position
    return who[back], best[back]


def _dense_nearest(
    points: np.ndarray, w: int, c: np.ndarray, sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest neighbor of every point by a blocked scan of all pairs.

    Same contract as `_bulk_nearest`.  In the `_centred` cloud (c, sq),
    row i ranks column j by sq_j - 2 c_i.c_j (its squared distance less
    sq_i), computed for a block of rows and columns by one product of the
    augmented rows [-2 c_i, 1] and [c_j, sq_j]; the temporal band is set
    to +inf by index.  Every column within a proven rounding slack of the
    row minimum stays a candidate, and `_settle` recomputes the
    candidates' distances from the original points exactly as the k-d
    tree does, so the winner and its distance match the tree's bit for
    bit.  A block holds at most ``_SCAN_PRODUCT`` / (m + 1) entries
    whatever n is.
    """
    n, m = points.shape
    w = min(w, n)  # a wider band excludes nothing more
    nn_idx = np.full(n, -1, dtype=np.int64)
    nn_dist = np.full(n, np.inf)
    # the augmented rows [-2 c_i, 1] and, transposed, [c_j, sq_j]
    lhs = np.column_stack((-2.0 * c, np.ones(n)))
    rhs = np.empty((m + 1, n))  # row-major: 3x faster products than a transposed view
    rhs[:m] = c.T
    rhs[m] = sq
    # With u the unit roundoff and S = sq_i + max(sq): a ranking value is
    # sq_ij - sq_i to within (3m + 6) u S (rounding of the centring, of sq
    # and of the product), and the tree's rounding lets its winner's
    # squared distance (at most 2 S) pass the ranked minimum's by under
    # 4 (m + 5) u S.  The winner thus ranks within (10m + 32) u S of the
    # row minimum, inside the slack; its last term covers products that
    # underflow.
    unit = np.finfo(np.float64).eps / 2
    slack = 16 * (m + 4) * (unit * (sq + sq.max()) + np.finfo(np.float64).tiny)
    size = max(1, _SCAN_PRODUCT // (m + 1))
    cols = min(n, size)
    rows = max(1, size // cols)
    # the band of a block's rows: (row in block, column less block start)
    band_row = np.repeat(np.arange(rows), 2 * w + 1)
    band_col = band_row + np.tile(np.arange(-w, w + 1), rows)
    found, count = [], 0
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        in_block = slice(0, (r1 - r0) * (2 * w + 1))
        best = np.full(r1 - r0, np.inf)
        for c0 in range(0, n, cols):
            g = lhs[r0:r1] @ rhs[:, c0 : c0 + cols]
            j = band_col[in_block] + (r0 - c0)
            hit = (j >= 0) & (j < g.shape[1])
            g[band_row[in_block][hit], j[hit]] = np.inf
            np.minimum(best, g.min(axis=1), out=best)
            # capped, so that a row with nothing admissible yet admits no band entry
            cut = np.minimum(best + slack[r0:r1], _FLOAT_MAX)
            ri, cj = np.divmod(np.flatnonzero(g <= cut[:, None]), g.shape[1])
            found.append((ri + r0, cj + c0))
            count += ri.size
        if count * m >= size or r1 == n:  # settle at most about a block of coordinates
            _settle(points, found, nn_idx, nn_dist)
            found, count = [], 0
    return nn_idx, nn_dist


def _settle(points, found, nn_idx, nn_dist) -> None:
    """Pick each row's winner among its (row, column) candidates: least
    exact distance, then least index."""
    ri = np.concatenate([f[0] for f in found])
    cj = np.concatenate([f[1] for f in found])
    dist = _tree_distance(points[ri], points[cj])
    order = np.lexsort((cj, dist, ri))
    ri, cj, dist = ri[order], cj[order], dist[order]
    lead = np.ones(ri.size, dtype=bool)
    lead[1:] = ri[1:] != ri[:-1]
    nn_idx[ri[lead]] = cj[lead]
    nn_dist[ri[lead]] = dist[lead]


def _tree_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance summed in cKDTree's p=2 order, so equal
    to its query distances bit for bit: four running sums over 4-wide
    steps, added s0+s1+s2+s3, then the tail, then sqrt.  (A plain
    left-to-right sum differs from m = 8 on, ``einsum`` from m = 3.)"""
    sq = np.square(a - b)
    m = sq.shape[1]
    whole = m - m % 4
    acc = np.zeros((len(sq), 4))
    for s in range(0, whole, 4):
        acc += sq[:, s : s + 4]
    total = acc[:, 0] + acc[:, 1] + acc[:, 2] + acc[:, 3]
    for col in range(whole, m):
        total += sq[:, col]
    return np.sqrt(total)


def _bulk_nearest(points: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest neighbor of every point via a k-d tree.

    Returns (index, distance) arrays; index is -1 (distance inf) where the
    temporal band excludes every candidate.  Matches the brute-force scan
    exactly, tie-breaks included: the retrieval depth k is escalated until
    the best admissible distance provably cannot be tied by an unretrieved
    candidate, then the smallest index among equal-distance candidates wins.

    The tree splits at sliding midpoints (Maneewongvatana & Mount, 1999),
    which follow the few directions a low-dimensional attractor fills
    instead of median-splitting every axis of a high-m embedding.  The
    first query takes k = 3, the least depth that can certify a winner
    (the point itself, the winner and one strictly farther candidate).
    Rows left uncertified jump to depth 2w + 3, which covers the whole
    temporal band of a flow whose band members are its nearest points,
    and keep doubling from there.
    """
    from scipy.spatial import cKDTree  # deferred: costs most of `import delaymap`

    n = len(points)
    nn_idx = np.full(n, -1, dtype=np.int64)
    nn_dist = np.full(n, np.inf)
    if n < 2:
        return nn_idx, nn_dist
    tree = cKDTree(points, balanced_tree=False)
    pending = np.arange(n)
    k = min(n, 3)
    while pending.size:
        d, i = tree.query(points[pending], k=k)
        admissible = (np.abs(i - pending[:, None]) > w) & (i < n)
        d_star = np.where(admissible, d, np.inf).min(axis=1)
        tie_min = np.where(admissible & (d == d_star[:, None]), i, n).min(axis=1)
        # a row is settled once the k-th distance passes its best admissible
        # one (no deeper candidate can tie it) or the whole cloud was read
        done = (k >= n) | (d[:, -1] > d_star)
        write = done & (tie_min < n)
        nn_idx[pending[write]] = tie_min[write]
        nn_dist[pending[write]] = d_star[write]
        pending = pending[~done]
        k = min(n, max(2 * k, 2 * w + 3))
    return nn_idx, nn_dist


def fnn_fraction(
    series: TimeSeries, delay: int, m: int, params: FnnParams = FnnParams()
) -> FnnEntry:
    """False-neighbor fraction at one candidate dimension.

    Only points t with t + m*delay < N are tested (the appended coordinate
    must exist for the point and for its neighbor, so the neighbor search
    runs over the same restricted set).

    Returns:
        FnnEntry(m, false_count / tested, tested, skipped).

    Raises:
        ValueError: m or delay is below 1 (from EmbeddingParams), checked
            before the data.
        DegenerateSeriesError: the series is constant, or m * range^2
            overflows float64, so no squared distance can be computed.
    """
    embedding = EmbeddingParams(delay, m)
    n = len(series)
    span = stats(series).value_range  # a Python float overflows to inf silently
    if span == 0.0:
        raise DegenerateSeriesError("constant series has no neighbor structure")
    # the largest squared distance in m coordinates is m * range^2
    if not np.isfinite(m * span * span):
        raise DegenerateSeriesError(
            f"squared distances overflow float64 at m={m}: the series range "
            f"{span:.3g} is too large for them; rescale the series"
        )
    w = params.window(delay)
    cloud = delay_embed(series, embedding)
    limit = n - m * delay
    if limit < 2:
        raise ValueError(
            f"no testable points: need t + {m}*{delay} < {n} for at least 2 points"
        )
    nn_idx, nn_dist = _nearest(np.ascontiguousarray(cloud.points[:limit]), w)

    sel = np.flatnonzero(nn_idx >= 0)
    if sel.size == 0:
        raise NoAdmissibleNeighborError(
            f"theiler window w={w} excludes every neighbor pair at m={m}"
        )
    nbr = nn_idx[sel]
    dist = nn_dist[sel]
    vals = series.values
    numer = np.abs(vals[sel + m * delay] - vals[nbr + m * delay])
    false_mask = np.empty(sel.size, dtype=bool)
    zero = dist == 0.0
    false_mask[zero] = numer[zero] > 0.0
    false_mask[~zero] = (numer[~zero] / dist[~zero]) > params.r_tol
    tested = int(sel.size)
    skipped = len(cloud) - tested
    return FnnEntry(m, int(np.count_nonzero(false_mask)) / tested, tested, skipped)


def embedding_dimension(
    series: TimeSeries, delay: int, params: FnnParams = FnnParams()
) -> DimensionSelection:
    """Sweep m = 1, 2, ... and pick the first negligible false fraction.

    The sweep stops ``_CONFIRM_DIMS`` dimensions past the first crossing
    (or at m_max if that comes first); when nothing crosses it runs to
    m_max.  The rows it skips could not change the selection.
    """
    if params.m_max * delay >= len(series):
        raise ValueError(
            f"m_max*T = {params.m_max * delay} must stay below N = {len(series)}"
        )
    entries, m_selected = [], None
    for m in range(1, params.m_max + 1):
        if m_selected is not None and m > m_selected + _CONFIRM_DIMS:
            break
        entry = fnn_fraction(series, delay, m, params)
        entries.append(entry)
        if m_selected is None and entry.fraction <= params.fnn_threshold:
            m_selected = m
    return DimensionSelection(m_selected, FnnCurve(tuple(entries)))
