"""Box-partition entropy and the information dimension.

A point cloud is covered by axis-aligned boxes of edge length r anchored
at the per-axis minima; each point lands in the lattice cell
floor((p_k - anchor_k)/r).  The Shannon entropy of the occupancy
distribution, S(r) = -sum p_i log2 p_i, grows as r shrinks, and the
information dimension is the slope of S against log2(1/r) over the
scaling region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .embedding import PointCloud
from .errors import ScalingFitError
from .series import check_integer

__all__ = [
    "BoxHistogram",
    "EntropyScaling",
    "DimensionEstimate",
    "partition_boxes",
    "shannon_entropy",
    "entropy_scaling",
    "information_dimension",
    "default_r_ladder",
    "reference_r",
]

DEFAULT_LADDER_STEPS = 16
#: coarsest and finest default box edges, as fractions of the data range
DEFAULT_R_COARSE_DIV = 4.0
DEFAULT_R_FINE_DIV = 512.0
REFERENCE_R_DIV = 256.0
#: cell keys stay below this, so they fit int64
_KEY_SPACE = 2**63


@dataclass(frozen=True, eq=False)
class BoxHistogram:
    """Occupancy counts of one r-box partition of a cloud.

    counts holds one int64 point count per occupied cell, in the
    lexicographic order of the cells' integer lattice coordinates (one
    per axis); boxes that caught no point are never stored, so every
    count is >= 1.  lattice is the (N, m) int64 array of each point's
    cell; it only serves ``occupied``.
    """

    counts: np.ndarray
    total: int
    lattice: np.ndarray = field(repr=False)

    def __post_init__(self):
        if int(self.counts.sum()) != self.total:
            raise ValueError("box counts do not add up to the cloud size")
        if not np.all(self.counts >= 1):
            raise ValueError("empty boxes must not be stored")

    @property
    def occupied(self) -> dict[tuple[int, ...], int]:
        """Lattice coordinates -> point count of every occupied cell."""
        cells = map(tuple, np.unique(self.lattice, axis=0).tolist())
        return dict(zip(cells, self.counts.tolist(), strict=True))


@dataclass(frozen=True)
class EntropyScaling:
    """S(r) sampled on a ladder of box sizes, coarse to fine.

    entries holds (r, S_bits) pairs with r strictly decreasing; total is
    the cloud size the curve was measured on (kept for the entropy upper
    bound S <= log2(total)).
    """

    entries: tuple[tuple[float, float], ...]
    total: int | None = None

    def __post_init__(self):
        if not self.entries:
            raise ValueError("scaling curve needs at least one entry")
        rs = [r for r, _ in self.entries]
        if not all(0 < r < math.inf for r in rs):  # false for nan too
            raise ValueError("box edge must be finite and positive")
        if any(b >= a for a, b in zip(rs, rs[1:])):
            raise ValueError("box sizes must be strictly decreasing")
        for _, s in self.entries:
            if s < 0.0:
                raise ValueError(f"entropy {s} cannot be negative")
            if self.total is not None and s > math.log2(self.total) + 1e-9:
                raise ValueError(f"entropy {s} exceeds log2(total)")

    def r_values(self) -> np.ndarray:
        return np.array([r for r, _ in self.entries])

    def bits(self) -> np.ndarray:
        return np.array([s for _, s in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DimensionEstimate:
    """Slope fit of the scaling curve: D_I with its fit diagnostics."""

    d_i: float
    intercept: float
    fit_range: tuple[float, float]
    r_squared: float
    points_used: int

    def __post_init__(self):
        if self.points_used < 3:
            raise ValueError("dimension fit needs at least 3 scaling points")
        if self.d_i < -1e-9:
            raise ValueError(f"negative dimension {self.d_i}")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared {self.r_squared} outside [0,1]")
        if self.fit_range[0] > self.fit_range[1]:
            raise ValueError("fit_range must be (r_lo, r_hi) with r_lo <= r_hi")


def partition_boxes(cloud: PointCloud, r: float) -> BoxHistogram:
    """Count cloud points per r-box.

    Boxes are closed on the low edge: a point exactly on the high boundary
    of a cell belongs to the next cell (so the per-axis maximum may open a
    box of its own).  Axes with zero spread collapse to lattice index 0.
    An r so small that a lattice index would overflow int64 is rejected.

    The anchor is the per-axis minimum, so every scaled coordinate
    (p_k - anchor_k)/r is >= 0 and truncating it to int64 gives its
    lattice index.  Each point's lattice row is folded into one
    order-preserving int64 key and the keys are sorted once; the run
    lengths are the counts, in lexicographic cell order (Liebovitch &
    Toth, Phys. Lett. A 141, 386, 1989).  The histogram keeps the lattice
    for ``occupied``.
    """
    pts = cloud.points
    lattice = np.empty(pts.shape, dtype=np.int64)
    counts = _box_counts(pts, _anchor(pts), r, lattice)
    return BoxHistogram(counts, len(pts), lattice)


def _anchor(pts: np.ndarray) -> np.ndarray:
    """Per-axis minima, taken one column at a time (an axis-0 reduction
    over a narrow array is far slower).  A -0.0 and a +0.0 minimum give
    the same lattice, so which signed zero a min returns does not matter."""
    return np.array([col.min() for col in pts.T])


def _box_counts(pts: np.ndarray, anchor: np.ndarray, r: float, lattice=None) -> np.ndarray:
    """Occupancy counts of the r-box partition anchored at anchor, in
    lexicographic cell order.  A given lattice, an (N, m) int64 array, is
    filled with each point's cell."""
    if not 0 < r < math.inf:  # false for nan too
        raise ValueError(f"box edge must be finite and positive, got {r}")
    # the largest scaled value (rounding is monotone); Python floats overflow to inf silently
    cells_per_axis = max(float(col.max()) - float(a) for col, a in zip(pts.T, anchor)) / float(r)
    if not cells_per_axis < 2.0**63:
        raise ValueError(
            f"box edge {r} is too small for the cloud's spread: "
            f"{cells_per_axis:.3g} boxes per axis overflow the int64 lattice"
        )
    keys = _cell_keys(pts, anchor, r, lattice)
    keys.sort()  # counted as run lengths, with no copy as np.unique makes
    return np.diff(np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True]))))


def _ranks(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense, order-preserving ranks of values, and how many there are."""
    distinct, ranks = np.unique(values, return_inverse=True)
    return ranks, len(distinct)


def _cell_keys(pts: np.ndarray, anchor: np.ndarray, r: float, lattice) -> np.ndarray:
    """One int64 key per point, ordered as the points' lattice cells are
    lexicographically; a given lattice is filled with the cells.

    Axes are scaled and folded in one column at a time (no array shaped
    like pts is made), in mixed radix, the extent of each being its
    maximum + 1 (the lattice starts at 0).  Where the key space would
    reach 2**63, the partial key, and then if need be the incoming axis,
    is first replaced by its dense ranks: order is kept and each factor
    drops to at most the row count.
    """
    keys = space = None
    for k, (col, a) in enumerate(zip(pts.T, anchor)):
        axis = ((col - a) / r).astype(np.int64)  # truncation == floor on >= 0
        if lattice is not None:
            lattice[:, k] = axis
        extent = int(axis.max()) + 1
        if keys is not None:
            if space * extent >= _KEY_SPACE:
                keys, space = _ranks(keys)
            if space * extent >= _KEY_SPACE:
                axis, extent = _ranks(axis)
            axis, extent = np.ravel_multi_index((keys, axis), (space, extent)), space * extent
        keys, space = axis, extent
    return keys


def shannon_entropy(hist: BoxHistogram) -> float:
    """-sum p_i log2 p_i over occupied boxes, in bits.

    Empty boxes are never stored, so the 0*log(0) case cannot arise.
    """
    return _entropy_bits(hist.counts, hist.total)


def _entropy_bits(counts: np.ndarray, total: int) -> float:
    p = counts / total
    return float(-(p * np.log2(p)).sum()) + 0.0  # normalize -0.0 away


def entropy_scaling(cloud: PointCloud, r_values) -> EntropyScaling:
    """Evaluate S(r) for each box size, preserving the given (coarse
    to fine) order.

    Equal, box size by box size, to ``shannon_entropy(partition_boxes(
    cloud, r))``; the anchor is taken once for the whole ladder, and no
    lattice is kept.
    """
    pts = cloud.points
    anchor = _anchor(pts)
    entries = tuple(
        (r, _entropy_bits(_box_counts(pts, anchor, r), len(pts))) for r in map(float, r_values)
    )
    return EntropyScaling(entries=entries, total=len(cloud))


def _fit_window(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line through (x, y): (slope, intercept, r_squared).

    A flat window (zero spread in y) reports r_squared = 0 so that exact
    entropy plateaus never win the scaling-window selection.
    """
    xm = x.mean()
    ym = y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise ScalingFitError("zero variance in log2(1/r) — duplicate box sizes?")
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    ss_tot = float(((y - ym) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 0.0
    else:
        ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot
    return slope, float(intercept), min(max(r2, 0.0), 1.0)


def information_dimension(
    scaling: EntropyScaling, fit_range: tuple[float, float] | None = None
) -> DimensionEstimate:
    """Slope of S against log2(1/r), i.e. the information dimension.

    With an explicit fit_range, all entries with r_lo <= r <= r_hi are
    used.  Otherwise the window is auto-selected: among all runs of >= 3
    consecutive entries, take the best linear fit (highest r_squared;
    ties go to the wider window, then to the one reaching finer scales).
    """
    rs = scaling.r_values()
    x = -np.log2(rs)
    y = scaling.bits()

    if fit_range is not None:
        r_lo, r_hi = fit_range
        mask = (rs >= r_lo) & (rs <= r_hi)
        if int(mask.sum()) < 3:
            raise ScalingFitError(
                f"need >= 3 scaling points in [{r_lo}, {r_hi}], have {int(mask.sum())}"
            )
        idx = np.flatnonzero(mask)
        start, stop = int(idx[0]), int(idx[-1]) + 1
    else:
        if len(scaling) < 3:
            raise ScalingFitError(
                f"need >= 3 scaling points to fit, have {len(scaling)}"
            )
        best_key = None
        start = stop = 0
        for width in range(3, len(scaling) + 1):
            for s in range(0, len(scaling) - width + 1):
                slope, _, r2 = _fit_window(x[s : s + width], y[s : s + width])
                key = (r2, width, -rs[s + width - 1])
                if best_key is None or key > best_key:
                    best_key = key
                    start, stop = s, s + width

    slope, intercept, r2 = _fit_window(x[start:stop], y[start:stop])
    return DimensionEstimate(
        d_i=slope,
        intercept=intercept,
        fit_range=(float(rs[stop - 1]), float(rs[start])),
        r_squared=r2,
        points_used=stop - start,
    )


def default_r_ladder(
    value_range: float,
    steps: int = DEFAULT_LADDER_STEPS,
    coarse_div: float = DEFAULT_R_COARSE_DIV,
    fine_div: float = DEFAULT_R_FINE_DIV,
) -> np.ndarray:
    """Geometric ladder of box edges from range/coarse_div down to range/fine_div."""
    if not 0 < value_range < math.inf:
        raise ValueError("value range must be finite and positive")
    if check_integer("ladder_steps", steps) < 2:
        raise ValueError("ladder needs at least 2 steps")
    if not 0 < coarse_div < fine_div < math.inf:
        raise ValueError(f"need finite 0 < r_coarse_div < r_fine_div: {coarse_div}, {fine_div}")
    return np.geomspace(value_range / coarse_div, value_range / fine_div, steps)


def reference_r(value_range: float, div: float = REFERENCE_R_DIV) -> float:
    """The reporting resolution for the headline entropy number."""
    if not 0 < value_range < math.inf:
        raise ValueError("value range must be finite and positive")
    if not 0 < div < math.inf:
        raise ValueError(f"r_ref_div must be finite and positive, got {div}")
    return value_range / div
