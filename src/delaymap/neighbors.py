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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingParams, delay_embed
from .errors import DegenerateSeriesError, NoAdmissibleNeighborError
from .series import TimeSeries

__all__ = [
    "FnnParams",
    "FnnEntry",
    "FnnCurve",
    "DimensionSelection",
    "fnn_fraction",
    "embedding_dimension",
]


@dataclass(frozen=True)
class FnnParams:
    """Knobs of the false-neighbor estimator.

    theiler_window=None means "use the embedding delay T"; pass 0 to
    disable temporal exclusion entirely.
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

    def fractions(self) -> np.ndarray:
        return np.array([e.fraction for e in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DimensionSelection:
    """Outcome of the dimension sweep.

    ``found`` is False when no dimension up to m_max pushed the false
    fraction under the threshold; ``m_selected`` is then None and the
    caller may retry with a larger m_max.  The full curve is always
    carried either way.
    """

    m_selected: int | None
    curve: FnnCurve
    found: bool


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
        rows = np.arange(len(pending))
        admissible = (np.abs(i - pending[:, None]) > w) & (i < n)
        has_adm = admissible.any(axis=1)
        first_pos = np.argmax(admissible, axis=1)
        d_star = d[rows, first_pos]
        tie_min = np.where(admissible & (d == d_star[:, None]), i, n).min(axis=1)
        exhausted = k >= n
        if exhausted:
            ok = has_adm
            none_at_all = ~has_adm
        else:
            # if the k-th retrieved distance ties the winner, deeper
            # candidates could still tie it — escalate those rows
            ok = has_adm & (d[:, -1] > d_star)
            none_at_all = np.zeros(len(pending), dtype=bool)
        nn_idx[pending[ok]] = tie_min[ok]
        nn_dist[pending[ok]] = d_star[ok]
        pending = pending[~(ok | none_at_all)]
        if exhausted:
            break
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
    """
    n = len(series)
    if m < 1 or delay < 1:
        raise ValueError("dimension and delay must be >= 1")
    vals = series.values
    if vals.min() == vals.max():
        raise DegenerateSeriesError("constant series has no neighbor structure")
    w = params.window(delay)
    cloud = delay_embed(series, EmbeddingParams(delay, m))
    limit = n - m * delay
    if limit < 2:
        raise ValueError(
            f"no testable points: need t + {m}*{delay} < {n} for at least 2 points"
        )
    nn_idx, nn_dist = _bulk_nearest(np.ascontiguousarray(cloud.points[:limit]), w)

    sel = np.flatnonzero(nn_idx >= 0)
    if sel.size == 0:
        raise NoAdmissibleNeighborError(
            f"theiler window w={w} excludes every neighbor pair at m={m}"
        )
    nbr = nn_idx[sel]
    dist = nn_dist[sel]
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
    """Sweep m = 1..m_max and pick the first negligible false fraction.

    The full curve is evaluated and returned regardless of where (or
    whether) the threshold is crossed.
    """
    if params.m_max * delay >= len(series):
        raise ValueError(
            f"m_max*T = {params.m_max * delay} must stay below N = {len(series)}"
        )
    entries = tuple(
        fnn_fraction(series, delay, m, params) for m in range(1, params.m_max + 1)
    )
    curve = FnnCurve(entries)
    for e in entries:
        if e.fraction <= params.fnn_threshold:
            return DimensionSelection(e.m, curve, True)
    return DimensionSelection(None, curve, False)
