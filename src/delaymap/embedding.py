"""Delay-coordinate embedding: series -> point cloud in R^n.

Point i of the reconstruction collects the series at lags 0, T, ..., (n-1)T:

    X_i = (x_i, x_{i+T}, ..., x_{i+(n-1)T}),   i = 0 .. N - (n-1)T - 1

Windows run forward and coordinates are bit-exact copies of the source
values; "dimension n" always means n coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import TimeSeries, check_integer

__all__ = ["EmbeddingParams", "PointCloud", "delay_embed", "cloud_from_points"]


@dataclass(frozen=True)
class EmbeddingParams:
    """Delay T (samples) and dimension n of a delay-coordinate map.

    Whether (n-1)*T fits a given series is checked at embedding time.
    """

    delay: int
    dimension: int

    def __post_init__(self):
        if check_integer("delay", self.delay) < 1:
            raise ValueError(f"delay must be >= 1, got {self.delay}")
        if check_integer("dimension", self.dimension) < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")

    @property
    def window_span(self) -> int:
        """Series samples covered by one embedded point."""
        return (self.dimension - 1) * self.delay + 1


@dataclass(frozen=True, eq=False)
class PointCloud:
    """The reconstructed attractor sample: M >= 1 points in n >= 1
    coordinates, held as the cloud's own read-only, row-major (M, n)
    float64 copy of ``points``.  The delay that made it is the caller's.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, order="C")  # row-major from any view
        if pts.ndim != 2 or min(pts.shape) < 1:
            raise ValueError(f"points shape {pts.shape} is not (M >= 1, n >= 1)")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        """Ambient dimension: coordinates per point."""
        return int(self.points.shape[1])

    def __len__(self) -> int:
        return int(self.points.shape[0])


def delay_embed(series: TimeSeries, params: EmbeddingParams) -> PointCloud:
    """Copy every window_span-long window of a series, read at every T-th
    sample, into one cloud: the strided window view is copied once.

    Args:
        series: source observations.
        params: delay and dimension; requires (n-1)*T < N.

    Returns:
        PointCloud with N - (n-1)*T points whose coordinate k is
        series.values[i + k*T], copied without any transformation.
    """
    n_samples = len(series)
    if params.window_span > n_samples:
        raise ValueError(
            f"(n-1)*T = {params.window_span - 1} >= N = {n_samples}: empty embedding"
        )
    windows = sliding_window_view(series.values, params.window_span)
    return PointCloud(windows[:, :: params.delay])


def cloud_from_points(points) -> PointCloud:
    """Wrap a raw (M, n) coordinate array, or an (M,) one as n = 1.

    For clouds that did not come from a delay embedding (loaded from a
    file, or built analytically).  PointCloud checks the shape.
    """
    pts = np.asarray(points, dtype=np.float64)
    return PointCloud(pts[:, None] if pts.ndim == 1 else pts)


def check_axes(cloud: PointCloud, axes: Sequence[int]) -> None:
    """Raise ValueError unless ``axes`` are 2 or 3 distinct valid axes of the cloud."""
    if len(axes) not in (2, 3):
        raise ValueError(f"projection takes 2 or 3 axes, got {len(axes)}")
    if len(set(axes)) < len(axes):
        raise ValueError(f"axes must be distinct, got {','.join(map(str, axes))}")
    for a in axes:
        if not 0 <= a < cloud.n:
            raise ValueError(f"axis {a} out of range for {cloud.n}-D cloud")
