import io

import numpy as np
import pytest

from delaymap import SeriesLoadError, TimeSeries, load_csv, series_from_text, stats


def test_drop_policy_passthrough():
    s = series_from_text("1.0\n2.0\n3.0\n", missing_policy="drop")
    assert s.values.tolist() == [1.0, 2.0, 3.0]


def test_forward_fill_repeats_last_value():
    s = series_from_text("1.0\nNA\n3.0\n")
    assert s.values.tolist() == [1.0, 1.0, 3.0]


def test_leading_missing_dropped_then_too_short():
    with pytest.raises(SeriesLoadError, match="fewer than 2"):
        series_from_text("NA\n5.0\n")


def test_leading_missing_dropped_but_enough_left():
    s = series_from_text("NA\nNA\n5.0\n6.0\n")
    assert s.values.tolist() == [5.0, 6.0]


def test_drop_removes_interior_missing():
    s = series_from_text("1.0\n\n2.0\nNA\n4.0\n", missing_policy="drop")
    assert s.values.tolist() == [1.0, 2.0, 4.0]


def test_stats_examples():
    assert stats(TimeSeries(np.array([1.0, 2, 3]))) == stats(
        TimeSeries(np.array([1.0, 2, 3]))
    )
    st = stats(TimeSeries(np.array([1.0, 2, 3])))
    assert (st.x_min, st.x_max) == (1.0, 3.0)
    st = stats(TimeSeries(np.array([7.0, 7, 7])))
    assert (st.x_min, st.x_max) == (7.0, 7.0)
    assert st.value_range == 0.0
    st = stats(TimeSeries(np.array([-1.0, 4.0, 0.5])))
    assert (st.x_min, st.x_max) == (-1.0, 4.0)


def test_load_reserialize_load_idempotent(tmp_path):
    rng = np.random.default_rng(7)
    original = rng.normal(size=60)
    p1 = tmp_path / "a.csv"
    p1.write_text("".join(repr(float(v)) + "\n" for v in original))
    s1 = load_csv(p1)
    p2 = tmp_path / "b.csv"
    p2.write_text("".join(repr(float(v)) + "\n" for v in s1.values))
    s2 = load_csv(p2)
    assert np.array_equal(s1.values, s2.values)
    assert np.array_equal(s1.values, original)


def test_column_by_header_name():
    text = "date,price,volume\nd1,10.5,100\nd2,11.0,200\n"
    s = series_from_text(text, column="price")
    assert s.values.tolist() == [10.5, 11.0]


def test_column_by_index_with_skip_header():
    text = "date,price\nd1,10.5\nd2,11.0\n"
    s = series_from_text(text, column=1, skip_header=True)
    assert s.values.tolist() == [10.5, 11.0]


def test_missing_named_column():
    with pytest.raises(SeriesLoadError, match="'close' not found"):
        series_from_text("a,b\n1,2\n3,4\n", column="close")


def test_comment_lines_are_skipped():
    s = series_from_text("# produced by tooling\n1.0\n# interior note\n2.0\n")
    assert s.values.tolist() == [1.0, 2.0]


def test_non_numeric_cell_reports_line():
    with pytest.raises(SeriesLoadError, match=":3"):
        series_from_text("1.0\n2.0\nbogus\n")


def test_row_without_requested_column():
    with pytest.raises(SeriesLoadError, match="no column 2"):
        series_from_text("1,2,3\n4,5\n", column=2)


def test_non_finite_cell_rejected():
    with pytest.raises(SeriesLoadError, match="non-finite"):
        series_from_text("1.0\ninf\n2.0\n")


def test_stream_input_and_label_default():
    s = load_csv(io.StringIO("3\n4\n"))
    assert s.label == "<stream>:0"
    assert s.values.tolist() == [3.0, 4.0]


def test_alternate_delimiter():
    s = series_from_text("1.0;2.0\n3.0;4.0\n", column=1, delimiter=";")
    assert s.values.tolist() == [2.0, 4.0]


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="missing_policy"):
        series_from_text("1\n2\n", missing_policy="interpolate")


def test_series_validation():
    with pytest.raises(ValueError, match="at least 2"):
        TimeSeries(np.array([1.0]))
    with pytest.raises(ValueError, match="1-D"):
        TimeSeries(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite value at position 1"):
        TimeSeries(np.array([1.0, np.nan, 2.0]))


def test_series_values_read_only():
    s = TimeSeries(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_series_copies_input():
    arr = np.array([1.0, 2.0])
    s = TimeSeries(arr)
    arr[0] = 99.0
    assert s.values[0] == 1.0


def test_len_and_origin():
    s = TimeSeries(np.array([5.0, 6.0, 7.0]))
    assert len(s) == 3


def test_stats_brackets_every_element():
    rng = np.random.default_rng(3)
    v = rng.normal(size=100)
    st = stats(TimeSeries(v))
    assert st.x_min <= v.min() and st.x_max >= v.max()
    assert st.x_min in v and st.x_max in v
