import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymap import (
    DegenerateSeriesError,
    MICurve,
    TimeSeries,
    ami_curve,
    default_max_lag,
    first_local_minimum,
    henon,
    histogram_mutual_information,
    joint_histogram,
    marginal_entropies,
    mutual_information,
)
from oracles import mi_recount


def series(*vals):
    return TimeSeries(np.array(vals, dtype=np.float64))


def test_joint_histogram_alternating_lag1():
    h = joint_histogram(series(0, 1, 0, 1, 0, 1), lag=1, bins=2)
    assert h.total == 5
    assert h.counts.tolist() == [[0, 3], [2, 0]]


def test_joint_histogram_alternating_lag2_diagonal():
    h = joint_histogram(series(0, 1, 0, 1), lag=2, bins=2)
    assert h.total == 2
    assert h.counts.tolist() == [[1, 0], [0, 1]]


def test_pair_count_conservation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(5, 120))
        lag = int(rng.integers(1, n - 1))
        s = TimeSeries(rng.normal(size=n))
        h = joint_histogram(s, lag, bins=int(rng.integers(2, 12)))
        assert int(h.counts.sum()) == h.total == n - lag


def test_top_edge_value_lands_in_last_bin():
    h = joint_histogram(series(0.0, 1.0, 2.0, 3.0), lag=1, bins=3)
    # 3.0 == x_max must fall in bin 2, not a phantom bin 3
    assert int(h.counts.sum()) == 3
    assert h.counts[2].sum() + h.counts[:, 2].sum() >= 1


def test_mi_diagonal_alternating_is_exactly_one_bit():
    assert mutual_information(series(0, 1, 0, 1, 0, 1, 0, 1), 2, 2) == 1.0


def test_mi_single_cell_is_zero():
    # all pairs collapse into one cell after binning with j=2 on a spike
    s = series(0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
    h = joint_histogram(s, 1, bins=2)
    assert histogram_mutual_information(h) >= 0.0
    # direct single-cell construction
    from delaymap import JointHistogram

    one = JointHistogram(2, np.array([[5, 0], [0, 0]]), 5)
    assert histogram_mutual_information(one) == 0.0


def test_mi_bounded_by_marginals():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(10, 200))
        s = TimeSeries(rng.normal(size=n))
        lag = int(rng.integers(1, n - 1))
        h = joint_histogram(s, lag, bins=8)
        i = histogram_mutual_information(h)
        hx, hy = marginal_entropies(h)
        assert i >= 0.0
        assert i <= min(hx, hy) + 1e-12


def test_transpose_symmetry_is_exact():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(10, 150))
        s = TimeSeries(rng.normal(size=n))
        h = joint_histogram(s, int(rng.integers(1, n - 1)), bins=7)
        assert histogram_mutual_information(h) == histogram_mutual_information(
            h.transposed()
        )


def test_shift_invariance_bit_exact_for_representable_shifts():
    rng = np.random.default_rng(8)
    for shift in (1.0, -3.0, 100.0, 1024.0):
        v = rng.integers(0, 32, size=80).astype(np.float64)
        if v.max() == v.min():
            continue
        a = TimeSeries(v)
        b = TimeSeries(v + shift)
        for lag in (1, 2, 5):
            ha = joint_histogram(a, lag, 6)
            hb = joint_histogram(b, lag, 6)
            assert np.array_equal(ha.counts, hb.counts)
            assert histogram_mutual_information(ha) == histogram_mutual_information(hb)


def test_oracle_recount_agreement():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(10, 200))
        s = rng.normal(size=n)
        lag = int(rng.integers(1, min(n - 1, 9)))
        bins = int(rng.integers(2, 17))
        mine = mutual_information(TimeSeries(s), lag, bins)
        ref = mi_recount(s, lag, bins)
        assert abs(mine - ref) <= 1e-12


def test_constant_series_rejected():
    with pytest.raises(DegenerateSeriesError):
        joint_histogram(series(4, 4, 4, 4), 1, 2)


def test_lag_and_bin_validation():
    s = series(1, 2, 3, 4)
    with pytest.raises(ValueError):
        joint_histogram(s, 0, 2)
    with pytest.raises(ValueError):
        joint_histogram(s, 3, 2)  # lag must leave 2 pairs: max is n-2
    with pytest.raises(ValueError):
        joint_histogram(s, 1, 1)


def test_ami_curve_shape_and_default_bound():
    s = TimeSeries(np.sin(np.arange(300) / 7.0))
    c = ami_curve(s)
    assert len(c) == default_max_lag(300) == 30
    assert c.lags.tolist() == list(range(1, 31))
    c5 = ami_curve(s, t_max=5)
    assert c5.lags.tolist() == [1, 2, 3, 4, 5]
    assert np.array_equal(c5.bits, c.bits[:5])


def test_default_max_lag_edges():
    assert default_max_lag(5) == 1
    assert default_max_lag(20) == 2
    assert default_max_lag(2000) == 100
    assert default_max_lag(40) == 4
    # never beyond the largest valid lag
    assert default_max_lag(3) == 1


def test_henon_decorrelates_fast():
    s = henon(5000)
    assert mutual_information(s, 1) > mutual_information(s, 2)


def test_first_local_minimum_examples():
    sel = first_local_minimum(MICurve(np.array([1, 2, 3]), np.array([2.0, 1.0, 1.5])))
    assert (sel.lag, sel.fallback_used) == (2, False)

    sel = first_local_minimum(MICurve(np.array([1, 2, 3]), np.array([3.0, 2.0, 1.0])))
    assert (sel.lag, sel.fallback_used) == (3, True)

    sel = first_local_minimum(
        MICurve(np.array([1, 2, 3, 4]), np.array([2.0, 1.0, 1.0, 1.4]))
    )
    assert (sel.lag, sel.fallback_used) == (2, False)


def test_first_local_minimum_needs_three_entries():
    with pytest.raises(ValueError):
        first_local_minimum(MICurve(np.array([1, 2]), np.array([2.0, 1.0])))


def test_curve_validation():
    with pytest.raises(ValueError):
        MICurve(np.array([2, 3, 4]), np.array([1.0, 1.0, 1.0]))  # must start at 1
    with pytest.raises(ValueError):
        MICurve(np.array([1, 1, 2]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        MICurve(np.array([1, 2]), np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        MICurve(np.array([1, 2]), np.array([1.0, np.inf]))


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=4,
        max_size=60,
    ),
    lag=st.integers(min_value=1, max_value=6),
    bins=st.integers(min_value=2, max_value=10),
)
def test_mi_nonnegative_property(data, lag, bins):
    arr = np.array(data)
    if arr.max() == arr.min() or lag > len(arr) - 2:
        return
    try:
        i = mutual_information(TimeSeries(arr), lag, bins)
    except DegenerateSeriesError:
        return  # value range too small to bin — rejected, not mismeasured
    assert i >= 0.0
    assert math.isfinite(i)
