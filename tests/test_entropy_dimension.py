import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymap import (
    BoxHistogram,
    DimensionEstimate,
    EmbeddingParams,
    EntropyScaling,
    ScalingFitError,
    cloud_from_points,
    default_r_ladder,
    delay_embed,
    entropy_scaling,
    henon,
    information_dimension,
    lorenz,
    partition_boxes,
    reference_r,
    shannon_entropy,
    stats,
)
from oracles import box_scan


def cloud(*pts):
    return cloud_from_points(np.array(pts, dtype=np.float64))


def row_sort_counts(pts, r):
    """Box counts by sorting whole lattice rows, in lexicographic cell order."""
    lattice = np.floor((pts - pts.min(axis=0)) / r).astype(np.int64)
    return np.unique(lattice, axis=0, return_counts=True)[1]


def entropy_of(counts):
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum()) + 0.0


def test_partition_examples():
    h = partition_boxes(cloud([0.0], [0.5], [1.0]), 0.6)
    assert h.occupied == {(0,): 2, (1,): 1}
    assert h.total == 3

    h = partition_boxes(cloud([3.25, -1.0]), 0.1)
    assert list(h.occupied.values()) == [1]
    assert h.total == 1

    h = partition_boxes(cloud([0.0, 0.0], [1.0, 1.0]), 0.5)
    assert sorted(h.occupied.values()) == [1, 1]
    assert len(h.occupied) == 2


def test_partition_r_validation():
    with pytest.raises(ValueError):
        partition_boxes(cloud([0.0], [1.0]), 0.0)
    with pytest.raises(ValueError):
        partition_boxes(cloud([0.0], [1.0]), -2.0)


def test_box_edge_that_overflows_the_lattice_is_rejected():
    segment = cloud_from_points(np.linspace(0.0, 1.0, 1000)[:, None])
    for edge in (1e-25, 1e-310):  # the second overflows float64 as well
        with pytest.raises(ValueError, match="int64"):
            partition_boxes(segment, edge)
    # a column whose spread overflows float64 has no lattice at any edge
    wide = cloud_from_points(np.array([[1e308, 0.0], [-1e308, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="int64"):
        partition_boxes(wide, 1.0)
    for edge in (math.nan, math.inf):
        with pytest.raises(ValueError, match="box edge must be finite and positive"):
            partition_boxes(segment, edge)
    # an edge just inside the int64 range still resolves every point
    fine = partition_boxes(segment, 2.0**-62)
    assert shannon_entropy(fine) == pytest.approx(math.log2(1000), abs=1e-12)


def test_degenerate_axis_collapses_to_zero():
    h = partition_boxes(cloud([0.0, 5.0], [1.0, 5.0], [2.5, 5.0]), 1.0)
    assert all(key[1] == 0 for key in h.occupied)
    assert h.total == 3


def test_probability_conservation_is_exact():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(137, 2))
    h = partition_boxes(cloud_from_points(pts), 0.3)
    assert sum(Fraction(c, h.total) for c in h.occupied.values()) == 1


def test_entropy_examples():
    # uniform over 4 boxes -> exactly 2 bits
    h = partition_boxes(cloud([0.1], [1.1], [2.1], [3.1]), 1.0)
    assert len(h.occupied) == 4
    assert shannon_entropy(h) == 2.0

    # single box -> exactly +0.0
    s = shannon_entropy(partition_boxes(cloud([0.2, 0.3]), 1.0))
    assert s == 0.0 and math.copysign(1.0, s) == 1.0

    # p = (0.5, 0.25, 0.25) -> 1.5 bits
    h = partition_boxes(cloud([0.0], [0.1], [1.5], [2.5]), 1.0)
    assert sorted(h.occupied.values()) == [1, 1, 2]
    assert abs(shannon_entropy(h) - 1.5) <= 1e-12


def test_entropy_bounds_and_uniform_maximum():
    rng = np.random.default_rng(17)
    for _ in range(20):
        pts = rng.normal(size=(int(rng.integers(2, 300)), int(rng.integers(1, 4))))
        h = partition_boxes(cloud_from_points(pts), float(rng.uniform(0.05, 2.0)))
        s = shannon_entropy(h)
        b = len(h.occupied)
        assert -1e-15 <= s <= math.log2(b) + 1e-9
        assert math.log2(b) <= math.log2(h.total) + 1e-9


def test_box_scan_oracle_equivalence():
    rng = np.random.default_rng(19)
    for _ in range(15):
        n = int(rng.integers(2, 400))
        dim = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, dim)) * float(rng.uniform(0.1, 50))
        r = float(rng.uniform(0.01, 5.0))
        h = partition_boxes(cloud_from_points(pts), r)
        assert h.occupied == box_scan(pts, r)


@settings(max_examples=150)
@given(
    m=st.integers(1, 6),
    r=st.sampled_from([0.25, 0.5, 1.0, 0.3, 1.7]),
    flat_axes=st.sets(st.integers(0, 5)),
    rows=st.lists(
        st.lists(
            # whole numbers times a power-of-two r sit exactly on cell edges
            st.one_of(st.integers(-6, 6).map(float), st.floats(-6.0, 6.0)),
            min_size=6,
            max_size=6,
        ),
        min_size=1,
        max_size=60,
    ),
)
def test_keyed_partition_matches_the_oracles(m, r, flat_axes, rows):
    pts = np.array(rows)[:, :m] * r
    for axis in flat_axes:
        if axis < m:
            pts[:, axis] = 2.5  # zero spread
    h = partition_boxes(cloud_from_points(pts), r)
    assert h.occupied == box_scan(pts, r)
    recount = row_sort_counts(pts, r)
    assert np.array_equal(h.counts, recount)
    assert shannon_entropy(h) == entropy_of(recount)


def test_key_space_past_int64_is_reranked():
    rng = np.random.default_rng(31)
    for m, r in ((3, 2.0**-22), (2, 2.0**-62)):
        base = rng.uniform(0.0, 1.0, size=(80, m))
        base[0], base[1] = 0.0, 1.0  # unit spread on every axis
        # repeated points give cells of unequal counts, so their order shows
        pts = np.repeat(base, rng.integers(1, 5, size=80), axis=0)
        extents = [
            math.floor((hi - lo) / r) + 1
            for lo, hi in zip(pts.min(axis=0), pts.max(axis=0))
        ]
        # every axis fits int64, their product does not
        assert max(extents) < 2**63 <= math.prod(extents)
        h = partition_boxes(cloud_from_points(pts), r)
        assert h.occupied == box_scan(pts, r)
        recount = row_sort_counts(pts, r)
        assert np.array_equal(h.counts, recount)
        assert shannon_entropy(h) == entropy_of(recount)


def test_lorenz_entropies_equal_the_row_sort_recount():
    series = lorenz(5000)
    pts = delay_embed(series, EmbeddingParams(17, 3))
    vr = stats(series).value_range
    rs = [*default_r_ladder(vr), reference_r(vr)]
    keyed = [shannon_entropy(partition_boxes(pts, r)) for r in rs]
    assert keyed == [entropy_of(row_sort_counts(pts.points, r)) for r in rs]
    assert [s for _, s in entropy_scaling(pts, rs[:-1]).entries] == keyed[:-1]


def _ladder_clouds():
    """Clouds of every layout entropy_scaling meets, by name."""
    lor = lorenz(3000)
    strided = np.lib.stride_tricks.sliding_window_view(lor.values, 2 * 17 + 1)[:, ::17]
    text = io.StringIO("\n".join(",".join(map(repr, row)) for row in strided.tolist()))
    flat = henon(2000).values
    zeros = np.zeros(2002)
    zeros[1::2] = -0.0
    return {
        "strided-delay": cloud_from_points(strided),
        "loaded": cloud_from_points(np.loadtxt(text, delimiter=",")),
        "reversed-view": cloud_from_points(strided[:, ::-1]),
        "zero-spread-axis": cloud_from_points(np.c_[flat, np.full_like(flat, 2.5), flat[::-1]]),
        "signed-zero-column": cloud_from_points(np.c_[zeros, np.linspace(-1.0, 1.0, 2002)]),
    }


@pytest.mark.parametrize("name", sorted(_ladder_clouds()))
def test_entropy_scaling_equals_partition_entropy_bit_for_bit(name):
    pts = _ladder_clouds()[name]
    spread = max(float(np.ptp(col)) for col in pts.points.T)
    rs = [*default_r_ladder(spread), spread / 2048]
    laddered = np.array([s for _, s in entropy_scaling(pts, rs).entries])
    one_by_one = np.array([shannon_entropy(partition_boxes(pts, r)) for r in rs])
    assert laddered.tobytes() == one_by_one.tobytes()


def test_a_ladder_whose_finest_edge_overflows_fails_like_one_partition():
    segment = cloud_from_points(np.linspace(0.0, 1.0, 1000)[:, None])
    with pytest.raises(ValueError, match="int64") as one:
        partition_boxes(segment, 1e-25)
    with pytest.raises(ValueError, match="int64") as ladder:
        entropy_scaling(segment, [0.5, 0.25, 1e-25])
    assert str(ladder.value) == str(one.value)
    with pytest.raises(ValueError, match="int64") as one:
        partition_boxes(segment, 1e-310)
    with pytest.raises(ValueError, match="int64") as ladder:
        entropy_scaling(segment, [0.5, 1e-310])
    assert str(ladder.value) == str(one.value)


@pytest.mark.parametrize("negative_first", [False, True])
def test_signed_zero_minimum_anchors_at_plus_zero(negative_first):
    zeros = np.zeros(2002)
    zeros[int(not negative_first)::2] = -0.0
    line = np.linspace(-1.0, 1.0, 2002)
    h = partition_boxes(cloud_from_points(np.c_[zeros, line]), 0.1)
    plain = partition_boxes(cloud_from_points(np.c_[np.zeros(2002), line]), 0.1)
    assert np.array_equal(h.lattice, plain.lattice)
    assert np.array_equal(h.counts, plain.counts)


def test_ladder_memory_is_bounded_by_the_cloud_not_the_ladder():
    pts = cloud_from_points(np.random.default_rng(41).normal(size=(20000, 3)))
    peaks = {}
    for steps in (16, 64):
        ladder = default_r_ladder(8.0, steps)
        tracemalloc.start()
        try:
            entropy_scaling(pts, ladder)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one lattice column and its float source at a time, the keys, the
    # folded keys, then the run lengths of the keys sorted in place
    assert peaks[16] <= 2.5 * pts.points.nbytes
    # 48 more (r, S) entries are all that a longer ladder may add
    assert peaks[64] - peaks[16] <= 16 * 1024


def test_partition_memory_is_its_lattice_and_a_few_columns():
    pts = cloud_from_points(np.random.default_rng(41).normal(size=(20000, 3)))
    tracemalloc.start()
    try:
        hist = partition_boxes(pts, default_r_ladder(8.0)[-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hist.counts) > len(pts) // 2  # most points sit in a box of their own
    # the lattice it returns is 1x the cloud; no float copy of the cloud is made
    assert peak <= 2.5 * pts.points.nbytes


def test_single_point_scaling_is_flat_zero():
    sc = entropy_scaling(cloud([1.0, 2.0]), [1.0, 0.5, 0.25])
    assert [s for _, s in sc.entries] == [0.0, 0.0, 0.0]


def test_uniform_line_gains_one_bit_per_halving():
    pts = (np.arange(1024, dtype=np.float64) / 1024.0)[:, None]
    rs = [2.0**-k for k in range(1, 6)]
    sc = entropy_scaling(cloud_from_points(pts), rs)
    bits = [s for _, s in sc.entries]
    for k, b in enumerate(bits, start=1):
        assert b == pytest.approx(k, abs=1e-9)


def test_refinement_never_loses_information():
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(500, 2))
    sc = entropy_scaling(cloud_from_points(pts), [1.0, 0.5, 0.25, 0.125])
    bits = [s for _, s in sc.entries]
    for coarse, fine in zip(bits, bits[1:]):
        assert fine >= coarse - 1e-9


def test_scale_covariance_bit_exact_for_power_of_two():
    rng = np.random.default_rng(29)
    pts = rng.normal(size=(300, 2))
    rs = [0.9, 0.45, 0.2, 0.11]
    base = entropy_scaling(cloud_from_points(pts), rs)
    for c in (2.0, 8.0, 0.125):
        scaled = entropy_scaling(
            cloud_from_points(c * pts), [c * r for r in rs]
        )
        assert [s for _, s in scaled.entries] == [s for _, s in base.entries]


def test_information_dimension_on_exact_slope():
    entries = tuple((2.0**-k, 2.0 * k) for k in range(1, 7))
    est = information_dimension(EntropyScaling(entries))
    assert est.d_i == pytest.approx(2.0, abs=1e-12)
    assert est.r_squared == 1.0
    assert est.points_used == 6
    assert est.fit_range == (2.0**-6, 0.5)


def test_auto_window_skips_the_saturated_plateau():
    # linear regime of slope 1 for the first 5 scales, then exact saturation
    entries = [(2.0**-k, float(k)) for k in range(1, 6)]
    entries += [(2.0**-k, 5.0) for k in range(6, 10)]
    est = information_dimension(EntropyScaling(tuple(entries)))
    assert est.d_i == pytest.approx(1.0, abs=1e-12)
    assert est.points_used == 5
    assert est.fit_range[1] == 0.5


def test_flat_curve_reports_zero_dimension_zero_r2():
    entries = tuple((2.0**-k, 3.0) for k in range(1, 6))
    est = information_dimension(EntropyScaling(entries))
    assert est.d_i == 0.0
    assert est.r_squared == 0.0
    assert est.points_used == 5  # ties on r^2 go to the widest window


def test_explicit_fit_range_selects_entries():
    entries = tuple((2.0**-k, 2.0 * k) for k in range(1, 8))
    est = information_dimension(EntropyScaling(entries), fit_range=(0.03, 0.26))
    # r in {2^-5, 2^-4, 2^-3, 2^-2}
    assert est.points_used == 4
    assert est.d_i == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ScalingFitError, match=">= 3"):
        information_dimension(EntropyScaling(entries), fit_range=(0.2, 0.3))


def test_too_few_entries_rejected():
    sc = EntropyScaling(((0.5, 1.0), (0.25, 2.0)))
    with pytest.raises(ScalingFitError):
        information_dimension(sc)


def test_scaling_validation():
    with pytest.raises(ValueError):
        EntropyScaling(())
    with pytest.raises(ValueError):
        EntropyScaling(((0.5, 1.0), (0.5, 2.0)))  # not strictly decreasing
    with pytest.raises(ValueError):
        EntropyScaling(((0.5, -0.1),))
    for edge in (math.nan, math.inf):
        with pytest.raises(ValueError, match="box edge must be finite and positive"):
            EntropyScaling(((edge, 0.0),))
    with pytest.raises(ValueError):
        EntropyScaling(((0.5, 3.0),), total=4)  # S > log2(total)


def test_estimate_validation():
    with pytest.raises(ValueError):
        DimensionEstimate(1.0, 0.0, (0.1, 1.0), 0.5, 2)
    with pytest.raises(ValueError):
        DimensionEstimate(-0.5, 0.0, (0.1, 1.0), 0.5, 3)
    with pytest.raises(ValueError):
        DimensionEstimate(1.0, 0.0, (0.1, 1.0), 1.5, 3)
    with pytest.raises(ValueError):
        DimensionEstimate(1.0, 0.0, (1.0, 0.1), 0.5, 3)


def test_box_histogram_validation():
    with pytest.raises(ValueError):
        BoxHistogram(np.array([2]), 3, np.zeros((3, 1), dtype=np.int64))  # counts miss a point
    with pytest.raises(ValueError):
        BoxHistogram(np.array([0]), 0, np.zeros((0, 1), dtype=np.int64))  # an empty box is stored


def test_default_ladder_and_reference():
    ladder = default_r_ladder(4.0)
    assert len(ladder) == 16
    assert ladder[0] == pytest.approx(1.0, rel=1e-12)
    assert ladder[-1] == pytest.approx(4.0 / 512, rel=1e-12)
    assert np.all(np.diff(ladder) < 0)
    assert reference_r(4.0) == pytest.approx(4.0 / 256, rel=1e-15)
    with pytest.raises(ValueError):
        default_r_ladder(0.0)
    with pytest.raises(ValueError):
        reference_r(-1.0)
    assert np.array_equal(default_r_ladder(4.0, 3, 2.0, 8.0), np.geomspace(2.0, 0.5, 3))
    assert reference_r(4.0, 128.0) == 4.0 / 128
