import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymap import (
    EmbeddingParams,
    PointCloud,
    TimeSeries,
    cloud_from_points,
    delay_embed,
    lorenz,
)


def series(*vals):
    return TimeSeries(np.array(vals, dtype=np.float64))


def test_window_examples():
    c = delay_embed(series(1, 2, 3, 4, 5), EmbeddingParams(1, 2))
    assert c.points.tolist() == [[1, 2], [2, 3], [3, 4], [4, 5]]

    c = delay_embed(series(1, 2, 3, 4, 5), EmbeddingParams(2, 2))
    assert c.points.tolist() == [[1, 3], [2, 4], [3, 5]]

    c = delay_embed(series(1, 2, 3), EmbeddingParams(1, 3))
    assert c.points.tolist() == [[1, 2, 3]]
    assert len(c) == 1


def test_empty_embedding_rejected():
    with pytest.raises(ValueError, match="empty embedding"):
        delay_embed(series(1, 2, 3), EmbeddingParams(2, 3))
    with pytest.raises(ValueError, match="empty embedding"):
        delay_embed(series(1, 2, 3), EmbeddingParams(3, 2))


def test_coordinates_are_bit_exact_copies():
    rng = np.random.default_rng(4)
    v = rng.normal(size=200)
    c = delay_embed(TimeSeries(v), EmbeddingParams(3, 4))
    for k in range(4):
        assert np.array_equal(c.points[:, k], v[3 * k : 3 * k + len(c)])


def test_dimension_consistency_drop_last_coordinate():
    rng = np.random.default_rng(9)
    v = rng.normal(size=120)
    s = TimeSeries(v)
    for t, n in ((1, 4), (3, 3), (7, 2)):
        hi = delay_embed(s, EmbeddingParams(t, n))
        lo = delay_embed(s, EmbeddingParams(t, n - 1))
        assert np.array_equal(hi.points[:, :-1], lo.points[: len(hi)])


@settings(max_examples=80, deadline=None)
@given(
    n_samples=st.integers(min_value=2, max_value=300),
    delay=st.integers(min_value=1, max_value=20),
    dim=st.integers(min_value=1, max_value=12),
)
def test_count_law(n_samples, delay, dim):
    if (dim - 1) * delay >= n_samples:
        return
    s = TimeSeries(np.arange(n_samples, dtype=np.float64))
    c = delay_embed(s, EmbeddingParams(delay, dim))
    assert len(c) == n_samples - (dim - 1) * delay
    assert c.n == dim


def test_params_validation():
    with pytest.raises(ValueError):
        EmbeddingParams(0, 2)
    with pytest.raises(ValueError):
        EmbeddingParams(1, 0)
    with pytest.raises(ValueError, match="delay must be an integer"):
        EmbeddingParams(1.5, 2)
    with pytest.raises(ValueError, match="dimension must be an integer"):
        EmbeddingParams(1, 2.0)
    assert EmbeddingParams(3, 4).window_span == 10
    assert EmbeddingParams(np.int64(3), np.int32(4)).window_span == 10


def test_points_read_only():
    c = delay_embed(series(1, 2, 3), EmbeddingParams(1, 2))
    with pytest.raises(ValueError):
        c.points[0, 0] = 99.0


def test_cloud_from_points_wraps_raw_arrays():
    c = cloud_from_points([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert c.n == 2 and len(c) == 3
    flat = cloud_from_points([1.0, 2.0, 3.0])
    assert flat.n == 1 and len(flat) == 3
    with pytest.raises(ValueError):
        cloud_from_points(np.zeros((2, 2, 2)))


def test_point_cloud_takes_its_shape_from_the_points_and_params():
    with pytest.raises(ValueError, match=r"is not \(M >= 1"):
        PointCloud(np.zeros((0, 2)))
    with pytest.raises(ValueError, match=r"is not \(M >= 1"):
        PointCloud(np.zeros((4, 0)))
    with pytest.raises(ValueError, match=r"is not \(M >= 1"):
        PointCloud(np.zeros(4))
    with pytest.raises(ValueError):
        cloud_from_points(np.zeros((0, 2)))
    c = PointCloud([[1, 2], [3, 4]])
    assert c.n == 2 and len(c) == 2 and c.points.dtype == np.float64


def test_delay_cloud_is_a_row_major_copy_of_the_windows():
    s = TimeSeries(np.arange(50, dtype=np.float64))
    c = delay_embed(s, EmbeddingParams(4, 3))
    assert not np.shares_memory(c.points, s.values)
    assert c.points.flags.c_contiguous


def test_delay_embed_allocates_the_cloud_once():
    s = lorenz(80_000)
    tracemalloc.start()
    try:
        c = delay_embed(s, EmbeddingParams(17, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one copy of the window view is 1x the cloud; a second full-size array makes 2x
    assert peak < 1.5 * c.points.nbytes
