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

from .series import TimeSeries

__all__ = ["EmbeddingParams", "PointCloud", "delay_embed", "cloud_from_points", "project"]


@dataclass(frozen=True)
class EmbeddingParams:
    """Delay T (samples) and dimension n of a delay-coordinate map.

    Whether (n-1)*T fits a given series is checked at embedding time.
    """

    delay: int
    dimension: int

    def __post_init__(self):
        if self.delay < 1:
            raise ValueError(f"delay must be >= 1, got {self.delay}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")

    @property
    def window_span(self) -> int:
        """Series samples covered by one embedded point."""
        return (self.dimension - 1) * self.delay + 1


@dataclass(frozen=True, eq=False)
class PointCloud:
    """The reconstructed attractor sample.

    Attributes:
        points: (M, n) float64 array, M = source_len - (n-1)*delay.
        n: ambient dimension.
        source_len: length of the originating series.
        params: the embedding that produced the cloud.
    """

    points: np.ndarray
    n: int
    source_len: int
    params: EmbeddingParams

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"points shape {pts.shape} does not match n={self.n}")
        expected = self.source_len - (self.n - 1) * self.params.delay
        if pts.shape[0] != expected:
            raise ValueError(
                f"point count {pts.shape[0]} != N-(n-1)T = {expected}"
            )
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.shape[0])


def delay_embed(series: TimeSeries, params: EmbeddingParams) -> PointCloud:
    """Materialize the sliding-window cloud of a series.

    Args:
        series: source observations.
        params: delay and dimension; requires (n-1)*T < N.

    Returns:
        PointCloud with N - (n-1)*T points whose coordinate k is
        series.values[i + k*T], copied without any transformation.
    """
    n_samples = len(series)
    t, dim = params.delay, params.dimension
    count = n_samples - (dim - 1) * t
    if count <= 0:
        raise ValueError(
            f"(n-1)*T = {(dim - 1) * t} >= N = {n_samples}: empty embedding"
        )
    pts = np.empty((count, dim), dtype=np.float64)
    for k in range(dim):
        pts[:, k] = series.values[k * t : k * t + count]
    return PointCloud(pts, dim, n_samples, params)


def cloud_from_points(points) -> PointCloud:
    """Wrap a raw (M, n) coordinate array as a PointCloud.

    For clouds that did not come from a delay embedding (loaded from a
    file, or built analytically); the attached params are the trivial
    embedding consistent with the point count.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"expected an (M, n) array, got shape {pts.shape}")
    m, dim = pts.shape
    return PointCloud(pts, dim, m + (dim - 1), EmbeddingParams(1, dim))


def check_axes(cloud: PointCloud, axes: Sequence[int]) -> None:
    """Raise ValueError unless ``axes`` are 2 or 3 valid axes of the cloud."""
    if len(axes) not in (2, 3):
        raise ValueError(f"projection takes 2 or 3 axes, got {len(axes)}")
    for a in axes:
        if not 0 <= a < cloud.n:
            raise ValueError(f"axis {a} out of range for {cloud.n}-D cloud")


def project(cloud: PointCloud, axes: Sequence[int]) -> np.ndarray:
    """Select 2 or 3 coordinates of every point, order preserved.

    Duplicate axes are allowed (diagonal plots).
    """
    check_axes(cloud, axes)
    return cloud.points[:, list(axes)].copy()
