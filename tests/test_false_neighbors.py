import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.spatial

import delaymap
from delaymap import (
    DegenerateSeriesError,
    EmbeddingParams,
    FnnCurve,
    FnnEntry,
    FnnParams,
    NoAdmissibleNeighborError,
    TimeSeries,
    ami_curve,
    delay_embed,
    embedding_dimension,
    first_local_minimum,
    fnn_fraction,
    henon,
    logistic,
    lorenz,
    sine,
    white_noise,
)
from delaymap import neighbors
from delaymap.neighbors import (
    _bulk_nearest,
    _centred,
    _dense_nearest,
    _sweep_nearest,
    _tree_distance,
)
from oracles import fnn_recount, nn_scan


def series(*vals):
    return TimeSeries(np.array(vals, dtype=np.float64))


def _full_sweep(ts, delay, params=FnnParams()):
    """fnn_fraction at every m = 1..m_max: the curve without the early stop."""
    return [fnn_fraction(ts, delay, m, params) for m in range(1, params.m_max + 1)]


def test_nearest_neighbor_examples():
    pts = np.array([[0.0], [10.0], [1.0]])
    assert _bulk_nearest(pts, 0)[0][0] == 2
    assert nn_scan(pts, 0, 0)[0] == 2

    tie = np.array([[0.0], [1.0], [1.0]])
    assert _bulk_nearest(tie, 0)[0][0] == 1  # equal distances -> smaller index
    assert nn_scan(tie, 0, 0)[0] == 1


def test_nearest_neighbor_band_excludes_everything():
    cloud = delay_embed(series(1, 2, 3, 4), EmbeddingParams(1, 2))
    assert len(cloud) == 3
    idx, dist = _bulk_nearest(cloud.points, 2)
    assert idx.tolist() == [-1, -1, -1]
    assert np.isinf(dist).all()
    assert nn_scan(cloud.points, 0, 2) == (-1, np.inf)
    with pytest.raises(NoAdmissibleNeighborError):
        fnn_fraction(series(1, 2, 4, 3, 5), 1, 2, FnnParams(theiler_window=2))


def test_bulk_search_matches_scan_including_ties():
    rng = np.random.default_rng(21)
    for trial in range(25):
        n = int(rng.integers(2, 120))
        dim = int(rng.integers(1, 5))
        w = int(rng.integers(0, 5))
        if trial % 3 == 0:
            pts = rng.integers(0, 3, size=(n, dim)).astype(float)  # heavy ties
        else:
            pts = rng.normal(size=(n, dim))
        idx, dist = _bulk_nearest(pts, w)
        for t in range(n):
            ref_i, ref_d = nn_scan(pts, t, w)
            assert idx[t] == ref_i
            if ref_i >= 0:
                assert dist[t] == pytest.approx(ref_d, abs=0.0, rel=1e-12)


@pytest.fixture
def query_depths(monkeypatch):
    """The depth k of every k-d tree query made while the test runs."""
    depths = []

    class RecordingTree(scipy.spatial.cKDTree):
        def query(self, x, k=1, **kwargs):
            depths.append(k)
            return super().query(x, k=k, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", RecordingTree)
    return depths


def _embedded(ts, delay, m, n=300):
    cloud = delay_embed(ts, EmbeddingParams(delay, m))
    return np.ascontiguousarray(cloud.points[:n])


@pytest.mark.parametrize(
    "pts, w, depths_expected",
    [
        # a flow's band members are its nearest points: one jump to 2w+3
        (_embedded(lorenz(330), 10, 3), 10, [3, 23]),
        # exact repeats every P samples tie at distance 0 past the band depth
        (_embedded(sine(310, 20), 5, 2), 5, [3, 13, 26]),
        (_embedded(henon(319), 1, 20), 1, [3]),
        # w = 0: the band jump is below 2k, so plain doubling
        (_embedded(sine(305, 20), 5, 2), 0, [3, 6, 12, 24]),
    ],
    ids=["lorenz-w=T", "sine-repeats", "henon-m20", "sine-w0"],
)
def test_bulk_search_escalation_matches_scan(pts, w, depths_expected, query_depths):
    idx, dist = _bulk_nearest(pts, w)
    assert query_depths == depths_expected
    for t in range(len(pts)):
        ref_i, ref_d = nn_scan(pts, t, w)
        assert idx[t] == ref_i
        assert dist[t] == pytest.approx(ref_d, abs=0.0, rel=1e-12)


def test_bulk_search_is_bit_identical_to_a_full_depth_query():
    # the ratio verdicts read these distances, so they must not drift by an ulp
    w = 1
    pts = _embedded(henon(1519), 1, 20, n=1500)
    n = len(pts)
    d, i = scipy.spatial.cKDTree(pts).query(pts, k=n)
    admissible = np.abs(i - np.arange(n)[:, None]) > w
    ref_dist = np.where(admissible, d, np.inf).min(axis=1)
    ref_idx = np.where(admissible & (d == ref_dist[:, None]), i, n).min(axis=1)
    idx, dist = _bulk_nearest(pts, w)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(dist, ref_dist)


def test_import_leaves_scipy_spatial_unloaded():
    src = os.path.dirname(os.path.dirname(delaymap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, delaymap; print('scipy.spatial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "ts", [white_noise(3000, 7), henon(5792)], ids=["noise", "henon"]
)
def test_pipeline_on_a_short_record_leaves_scipy_spatial_unloaded(ts, tmp_path):
    # every m of a record of at most 5 792 points takes the sweep or the scan
    src = os.path.dirname(os.path.dirname(delaymap.__file__))
    path = tmp_path / "record.csv"
    path.write_text("\n".join(map(repr, ts.values.tolist())) + "\n")
    code = (
        "import sys; from delaymap import cli;"
        f" cli.main(['pipeline', {str(path)!r}, '--output-dir', {str(tmp_path / 'out')!r}]);"
        " print('scipy.spatial' in sys.modules, file=sys.stderr)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert out.stderr.strip() == "False"
    assert (tmp_path / "out" / "fnn_curve.csv").is_file()


def test_pipeline_on_henon_above_the_size_gate_leaves_scipy_spatial_unloaded(tmp_path):
    # 10 000 points lie above the scan's size gate; the projection sweep
    # serves every m the sweep evaluates
    src = os.path.dirname(os.path.dirname(delaymap.__file__))
    path = tmp_path / "henon.csv"
    path.write_text("\n".join(map(repr, henon(10000).values.tolist())) + "\n")
    code = (
        "import sys; from delaymap import cli;"
        f" cli.main(['pipeline', {str(path)!r}, '--fixed-delay', '1',"
        f" '--output-dir', {str(tmp_path / 'out')!r}]);"
        " print('scipy.spatial' in sys.modules, file=sys.stderr)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert out.stderr.strip() == "False"
    assert (tmp_path / "out" / "fnn_curve.csv").is_file()


def test_line_has_no_false_neighbors():
    s = TimeSeries(np.arange(50, dtype=np.float64))
    for m in (1, 2, 3):
        e = fnn_fraction(s, 1, m)
        assert e.fraction == 0.0


def test_zero_distance_pairs_follow_the_limit_rule():
    # duplicate 1-D points whose appended coordinates differ -> false
    e = fnn_fraction(series(0, 1, 0, 2, 5, 6), 1, 1, FnnParams(theiler_window=1))
    # points 0 and 2 coincide; successors 1 vs 2 differ => at least one false pair
    assert e.fraction > 0.0

    # duplicate points whose appended coordinates also coincide -> true
    e2 = fnn_fraction(series(0, 1, 0, 1, 0, 7), 1, 1, FnnParams(theiler_window=1))
    assert e2.tested_points > 0


def test_zero_distance_exact_accounting():
    # series [0,1,0,1,0,2]: m=1, T=1, w=1; testable points are indices 0..4
    vals = [0.0, 1.0, 0.0, 1.0, 0.0, 2.0]
    frac, tested, skipped = fnn_recount(vals, 1, 1, 10.0, 1)
    e = fnn_fraction(series(*vals), 1, 1, FnnParams(theiler_window=1))
    assert e.fraction == frac
    assert e.tested_points == tested
    assert e.skipped_points == skipped


def test_recount_agreement_on_random_series():
    rng = np.random.default_rng(31)
    for _ in range(12):
        n = int(rng.integers(12, 80))
        vals = rng.normal(size=n)
        delay = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        if n - m * delay < 2:
            continue
        w = int(rng.integers(0, 3))
        frac, tested, skipped = fnn_recount(vals, delay, m, 10.0, w)
        e = fnn_fraction(
            TimeSeries(vals), delay, m, FnnParams(theiler_window=w)
        )
        assert e.fraction == frac
        assert (e.tested_points, e.skipped_points) == (tested, skipped)


def test_huge_tolerance_kills_all_false_flags():
    rng = np.random.default_rng(41)
    s = TimeSeries(rng.normal(size=300))
    e = fnn_fraction(s, 2, 2, FnnParams(r_tol=1e15))
    assert e.fraction == 0.0


def test_theiler_default_is_the_delay():
    rng = np.random.default_rng(51)
    s = TimeSeries(rng.normal(size=200))
    implicit = fnn_fraction(s, 3, 2)
    explicit = fnn_fraction(s, 3, 2, FnnParams(theiler_window=3))
    assert implicit == explicit


def test_skipped_points_bookkeeping():
    # N=10, T=2, m=2: cloud has 8 points, testable limit = 10-4 = 6
    rng = np.random.default_rng(61)
    s = TimeSeries(rng.normal(size=10))
    e = fnn_fraction(s, 2, 2)
    assert e.tested_points + e.skipped_points == 8
    assert e.skipped_points >= 2


def test_constant_series_rejected():
    with pytest.raises(DegenerateSeriesError):
        fnn_fraction(series(3, 3, 3, 3, 3), 1, 1)


def test_no_testable_points_rejected():
    with pytest.raises(ValueError, match="no testable points"):
        fnn_fraction(series(1, 2, 3), 1, 2)  # limit = 3 - 2 = 1 point only


def test_fraction_scale_invariance():
    rng = np.random.default_rng(71)
    v = rng.normal(size=250)
    base = [fnn_fraction(TimeSeries(v), 2, m) for m in (1, 2, 3)]
    doubled = [fnn_fraction(TimeSeries(2.0 * v), 2, m) for m in (1, 2, 3)]
    generic = [fnn_fraction(TimeSeries(3.7 * v), 2, m) for m in (1, 2, 3)]
    for b, d, g in zip(base, doubled, generic):
        assert b.fraction == d.fraction  # power-of-two scaling is exact
        assert abs(b.fraction - g.fraction) <= 1e-12


def test_embedding_dimension_selects_first_crossing():
    s = sine(2000, 40)
    sel = embedding_dimension(s, 10, FnnParams(m_max=5))
    assert sel.found and sel.m_selected == 2
    assert [e.m for e in sel.curve.entries] == [1, 2, 3, 4]
    assert sel.curve.entries[1].fraction <= 0.01


@pytest.mark.parametrize(
    "ts, delay",
    [
        (henon(3000), 1),
        (logistic(3000), 1),
        (lorenz(3000), 1),
        (lorenz(3000), None),
        (sine(3000, 40), 1),
        (white_noise(3000, 3), 1),
        (white_noise(3000, 7), 1),
    ],
    ids=["henon", "logistic", "lorenz-T1", "lorenz-ami", "sine-p40", "noise-3", "noise-7"],
)
def test_sweep_stops_two_dimensions_past_the_selection(ts, delay):
    delay = first_local_minimum(ami_curve(ts)).lag if delay is None else delay
    params = FnnParams()
    full = _full_sweep(ts, delay, params)
    first = next((e.m for e in full if e.fraction <= params.fnn_threshold), None)
    sel = embedding_dimension(ts, delay, params)
    assert (sel.m_selected, sel.found) == (first, first is not None)
    assert first is not None
    assert len(sel.curve) == min(params.m_max, first + 2)
    assert sel.curve.entries == tuple(full[: len(sel.curve)])


def test_sweep_runs_to_m_max_when_nothing_crosses():
    noise = white_noise(2000, 11)
    params = FnnParams(fnn_threshold=0.0, m_max=5)
    sel = embedding_dimension(noise, 1, params)
    assert not sel.found and sel.m_selected is None
    assert sel.curve.entries == tuple(_full_sweep(noise, 1, params))


def test_sweep_stops_at_m_max_inside_the_confirmation_dims():
    s = sine(2000, 40)
    for m_max in (2, 3):
        sel = embedding_dimension(s, 10, FnnParams(m_max=m_max))
        assert sel.m_selected == 2
        assert [e.m for e in sel.curve.entries] == list(range(1, m_max + 1))


def test_embedding_dimension_can_fail_to_find():
    noise = white_noise(400, 99)
    sel = embedding_dimension(noise, 1, FnnParams(m_max=2))
    assert not sel.found and sel.m_selected is None
    assert len(sel.curve) == 2


def test_embedding_dimension_validates_budget():
    with pytest.raises(ValueError, match="m_max"):
        embedding_dimension(series(1, 2, 3, 4, 5), 1, FnnParams(m_max=20))


def test_params_and_curve_validation():
    with pytest.raises(ValueError):
        FnnParams(r_tol=0.0)
    with pytest.raises(ValueError):
        FnnParams(fnn_threshold=1.5)
    with pytest.raises(ValueError):
        FnnParams(theiler_window=-1)
    with pytest.raises(ValueError):
        FnnParams(m_max=0)
    with pytest.raises(ValueError):
        FnnEntry(1, 1.2, 10, 0)
    with pytest.raises(ValueError):
        FnnCurve((FnnEntry(2, 0.5, 10, 0),))  # must start at m=1
    with pytest.raises(ValueError):
        FnnCurve((FnnEntry(1, 0.5, 10, 0), FnnEntry(1, 0.5, 10, 0)))


def _assert_same_search(pts, w):
    tree_idx, tree_dist = _bulk_nearest(pts, w)
    scan_idx, scan_dist = _dense_nearest(pts, w, *_centred(pts))
    assert np.array_equal(scan_idx, tree_idx)
    assert np.array_equal(scan_dist, tree_dist)


def test_dense_scan_is_bit_identical_to_the_tree_on_random_clouds():
    rng = np.random.default_rng(202)
    for trial in range(60):
        n = int(rng.integers(2, 201))
        dim = int(rng.integers(1, 6))
        if trial % 3 == 2:  # integer lattices: exact distance ties are common
            pts = rng.integers(0, 4, size=(n, dim)).astype(float)
        else:
            pts = rng.normal(size=(n, dim)) * float(rng.uniform(0.1, 30.0))
        for w in range(6):
            _assert_same_search(pts, w)


@pytest.mark.parametrize("offset", [0.0, 1e6], ids=["no-offset", "offset-1e6"])
def test_dense_scan_is_bit_identical_to_the_tree_on_high_m_noise(offset):
    # in uncentred coordinates the offset would make sq_j - 2 c_i.c_j cancel badly
    noise = TimeSeries(white_noise(1500, 5).values + offset)
    for m in range(12, 21):
        _assert_same_search(_embedded(noise, 1, m, n=1500 - m), 1)


def test_dense_scan_edge_cases():
    two = np.array([[0.0, 1.0], [3.0, 5.0]])
    idx, dist = _dense_nearest(two, 0, *_centred(two))
    assert idx.tolist() == [1, 0] and dist.tolist() == [5.0, 5.0]
    pts = np.random.default_rng(3).normal(size=(7, 3))
    for w in (6, 7, 100):  # the band swallows every candidate
        idx, dist = _dense_nearest(pts, w, *_centred(pts))
        assert idx.tolist() == [-1] * 7 and np.isinf(dist).all()
    idx, _ = _dense_nearest(pts, 5, *_centred(pts))  # only the two end rows see each other
    assert idx.tolist() == [6, -1, -1, -1, -1, -1, 0]
    # the tree settles the end rows early and reads the whole cloud for the rest
    idx, dist = _bulk_nearest(pts, 5)
    assert idx.tolist() == [6, -1, -1, -1, -1, -1, 0]
    assert dist[0] == dist[6] < np.inf and np.isinf(dist[1:6]).all()


def test_dense_scan_matches_the_sequential_scan():
    rng = np.random.default_rng(23)
    for trial in range(12):
        n = int(rng.integers(2, 90))
        pts = rng.integers(0, 3, size=(n, 4)).astype(float) if trial % 2 else rng.normal(size=(n, 9))
        w = int(rng.integers(0, 4))
        idx, dist = _dense_nearest(pts, w, *_centred(pts))
        for t in range(n):
            ref_i, ref_d = nn_scan(pts, t, w)
            assert idx[t] == ref_i
            if ref_i >= 0:
                assert dist[t] == pytest.approx(ref_d, abs=0.0, rel=1e-12)


@pytest.mark.parametrize("m", range(1, 25))
def test_exact_distances_follow_the_tree_summation_order(m):
    # the scan's winners carry these distances, so a change in scipy's
    # summation order must fail here rather than drift the FNN ratios
    rng = np.random.default_rng(m)
    pts = rng.normal(size=(60, m)) * rng.uniform(0.01, 100.0, size=m)
    n = len(pts)
    d, i = scipy.spatial.cKDTree(pts).query(pts, k=n)
    rows = np.repeat(np.arange(n), n)
    assert np.array_equal(_tree_distance(pts[rows], pts[i.ravel()]), d.ravel())


@pytest.fixture
def searches(monkeypatch):
    """(trees built, routes taken) for every neighbor search while the test runs."""
    trees, taken = [], []

    class CountingTree(scipy.spatial.cKDTree):
        def __init__(self, *args, **kwargs):
            trees.append(1)
            super().__init__(*args, **kwargs)

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            taken.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    monkeypatch.setattr(neighbors, "_bulk_nearest", recorded("tree", neighbors._bulk_nearest))
    monkeypatch.setattr(neighbors, "_dense_nearest", recorded("scan", neighbors._dense_nearest))
    monkeypatch.setattr(neighbors, "_sweep_nearest", recorded("sweep", neighbors._sweep_nearest))
    return trees, taken


@pytest.fixture
def routes(searches, monkeypatch):
    """`searches` with the size gate lifted, so every cloud meets the probe."""
    monkeypatch.setattr(neighbors, "_SCAN_PAIRS", 0)
    return searches


#: Routes over m = 1..20 with the size gate lifted.  A cloud whose probe
#: predicts few pairs per row takes the projection sweep and builds no tree.
LIFTED_ROUTES = {
    "noise": ["sweep"] + ["tree"] * 7 + ["scan"] * 12,
    "henon": ["sweep"] * 5 + ["tree"] * 15,
    "lorenz-T1": ["sweep"] * 4 + ["tree"] * 16,
    "lorenz-T10": ["sweep"] * 2 + ["tree"] * 18,
    "sine-T1": ["tree"] * 20,
    "sine-T10": ["tree"] * 20,
}
#: The same routes under the size gate, where the scan serves every cloud
#: the sweep does not.
GATED_ROUTES = {
    case: ["scan" if r == "tree" else r for r in taken] for case, taken in LIFTED_ROUTES.items()
}


def test_route_choice_is_deterministic_and_picks_the_scan_for_noise(routes):
    trees, taken = routes
    noise = white_noise(3000, 7)
    first = _full_sweep(noise, 1)
    assert taken == LIFTED_ROUTES["noise"]
    assert len(trees) == 7
    again = _full_sweep(noise, 1)
    assert taken[20:] == taken[:20]
    assert again == first


ATTRACTORS = {
    "henon": (henon(3000), 1),
    "lorenz-T1": (lorenz(3000), 1),
    "lorenz-T10": (lorenz(3000), 10),
    "sine-T1": (sine(3000, 40), 1),
    "sine-T10": (sine(3000, 40), 10),
}


@pytest.mark.parametrize("case", list(ATTRACTORS))
def test_attractors_keep_the_tree_with_one_tree_per_dimension(case, routes):
    # the dimensions the projection sweep serves come first and build no tree
    trees, taken = routes
    _full_sweep(*ATTRACTORS[case])
    assert taken == LIFTED_ROUTES[case]
    assert len(trees) == taken.count("tree")


@pytest.mark.parametrize(
    "case, m, route",
    [("henon", 2, "sweep"), ("noise", 12, "scan"), ("lorenz-T10", 3, "tree")],
    ids=["sweep", "scan", "tree"],
)
def test_each_search_centres_the_cloud_once(case, m, route, routes, monkeypatch):
    # the probe and the scan share one centred cloud; LIFTED_ROUTES gives the route
    trees, taken = routes
    calls = []
    centred = neighbors._centred
    monkeypatch.setattr(neighbors, "_centred", lambda pts: calls.append(1) or centred(pts))
    ts, delay = (white_noise(3000, 7), 1) if case == "noise" else ATTRACTORS[case]
    fnn_fraction(ts, delay, m)
    assert taken == [route] == [LIFTED_ROUTES[case][m - 1]]
    assert len(calls) == 1


@pytest.mark.parametrize("case", ["noise", "henon", "lorenz-T1", "lorenz-T10", "sine-T1"])
def test_small_clouds_take_the_scan_and_build_no_tree(case, searches, monkeypatch):
    # the sweep serves every m its probe admits; the scan takes the rest
    trees, taken = searches
    ts, delay = (white_noise(3000, 7), 1) if case == "noise" else ATTRACTORS[case]
    gated = _full_sweep(ts, delay)
    assert taken == GATED_ROUTES[case]
    assert not trees
    monkeypatch.setattr(neighbors, "_SCAN_PAIRS", 0)
    assert _full_sweep(ts, delay) == gated
    assert taken[20:] == LIFTED_ROUTES[case]
    assert len(trees) == taken.count("tree")


def test_size_gate_sends_clouds_past_2_to_the_25_pairs_to_the_tree(searches):
    # noise in the plane predicts too many pairs for the sweep
    trees, taken = searches
    assert 5792**2 <= neighbors._SCAN_PAIRS < 5793**2
    fnn_fraction(white_noise(5794, 4), 1, 2)  # 5 792 points in the plane
    assert taken == ["scan"] and not trees
    fnn_fraction(white_noise(5795, 4), 1, 2)  # 5 793 points in the plane
    assert taken == ["scan", "tree"] and len(trees) == 1
    fnn_fraction(white_noise(5793, 4), 1, 1)  # on a line the sweep serves both sizes
    fnn_fraction(white_noise(5794, 4), 1, 1)
    assert taken == ["scan", "tree", "sweep", "sweep"] and len(trees) == 1


def test_lorenz_above_the_size_gate_still_builds_a_tree(searches):
    # a flow's embedding at T = 17 predicts too many pairs for the sweep
    trees, taken = searches
    entry = fnn_fraction(lorenz(6000), 17, 3)  # 5 949 points
    assert taken == ["tree"] and len(trees) == 1
    assert entry.tested_points == 5949


def test_cloud_too_large_in_scale_for_the_scan_keeps_the_tree(searches):
    trees, taken = searches
    pts = np.random.default_rng(152).normal(size=(300, 3)) * 3e152  # 4 n pair_sq overflows
    idx, dist = neighbors._nearest(pts, 1)
    assert taken == ["tree"] and len(trees) == 1
    ref = [nn_scan(pts, t, 1) for t in range(len(pts))]
    assert idx.tolist() == [i for i, _ in ref]
    assert dist.tolist() == [d for _, d in ref]


def test_cloud_without_spread_keeps_the_tree(searches):
    # pair_sq is 0, so the scan's gate fails; the 299 tied points stay few
    # enough that the tree's escalation through them is cheap
    trees, taken = searches
    entry = fnn_fraction(series(*[0.0] * 299, 1.0), 1, 1)
    assert entry == FnnEntry(1, 1 / 299, 299, 1)
    assert taken == ["tree"] and len(trees) == 1


def _assert_sweep_exact(pts, w, budget=None, axis=0):
    """The projection sweep along ``axis`` gives `_bulk_nearest`'s arrays bit
    for bit, or None when ``budget`` runs out first (n^2 pairs never do)."""
    n = len(pts)
    ref_idx, ref_dist = _bulk_nearest(pts, w)
    found = _sweep_nearest(pts, w, axis, n * n if budget is None else budget)
    if found is None:
        assert budget is not None
        return None
    idx, dist = found
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(dist, ref_dist)
    return idx, dist


def test_projection_sweep_matches_the_tree_and_the_scan_on_the_criterion_2_clouds():
    # criterion 2's generator; at dimension <= 5 the sequential scan sums in
    # the tree's order, so its distances match bit for bit too
    rng = np.random.default_rng(202)
    given_up = 0
    for trial in range(100):
        n = int(rng.integers(2, 201))
        dim = int(rng.integers(1, 6))
        if trial % 3 == 2:
            pts = rng.integers(0, 4, size=(n, dim)).astype(float)
        else:
            pts = rng.normal(size=(n, dim)) * float(rng.uniform(0.1, 30.0))
        w = int(rng.integers(0, 6))
        ref = [nn_scan(pts, t, w) for t in range(n)]
        for axis in range(dim):  # any axis gives the same arrays
            idx, dist = _assert_sweep_exact(pts, w, axis=axis)
            assert idx.tolist() == [i for i, _ in ref]
            assert dist.tolist() == [d for _, d in ref]
        given_up += _assert_sweep_exact(pts, w, budget=n) is None  # a tiny budget
    assert given_up


def test_projection_sweep_is_bit_identical_on_the_scan_versus_tree_clouds():
    rng = np.random.default_rng(202)
    for trial in range(60):
        n = int(rng.integers(2, 201))
        dim = int(rng.integers(1, 6))
        if trial % 3 == 2:
            pts = rng.integers(0, 4, size=(n, dim)).astype(float)
        else:
            pts = rng.normal(size=(n, dim)) * float(rng.uniform(0.1, 30.0))
        for w in range(6):
            _assert_sweep_exact(pts, w)
    for offset in (0.0, 1e6):
        noise = TimeSeries(white_noise(1500, 5).values + offset)
        for m in (12, 16, 20):
            _assert_sweep_exact(_embedded(noise, 1, m, n=1500 - m), 1)


@pytest.mark.parametrize("delay, m", [(1, 1), (1, 2), (10, 2), (10, 5), (10, 20)])
def test_projection_sweep_keeps_the_smallest_index_among_exact_repeats(delay, m):
    # a period-40 sine repeats every point exactly, so nearest distances tie
    pts = _embedded(sine(3000, 40), delay, m, n=3000 - m * delay)
    _, dist = _assert_sweep_exact(pts, delay)
    assert (dist == 0.0).any()
    _assert_sweep_exact(pts, delay, budget=len(pts))


def test_projection_sweep_with_the_band_swallowing_every_candidate():
    pts = np.random.default_rng(3).normal(size=(7, 3))
    for w in (6, 7, 100):
        idx, dist = _sweep_nearest(pts, w, 0, 49)
        assert idx.tolist() == [-1] * 7 and np.isinf(dist).all()
        assert _sweep_nearest(pts, w, 2, 10) is None  # the budget ends first


@pytest.mark.parametrize(
    "gate, contrast, hand_off",
    [(0, np.inf, "tree"), (0, 0.0, "scan"), (None, np.inf, "scan")],
    ids=["inf-tree", "0.0-scan", "below-the-gate"],
)
def test_rows_left_open_by_the_sweep_budget_go_to_the_probe_route(
    gate, contrast, hand_off, searches, monkeypatch
):
    # past the gate the probe's contrast picks the route; under it an
    # overrun goes to the scan, never to the tree
    trees, taken = searches
    pts = _embedded(henon(3010), 1, 3, n=3000)
    ref = _bulk_nearest(pts, 1)
    trees.clear()
    taken.clear()
    if gate is not None:
        monkeypatch.setattr(neighbors, "_SCAN_PAIRS", gate)
    monkeypatch.setattr(neighbors, "_SCAN_CONTRAST", contrast)
    monkeypatch.setattr(neighbors, "_SWEEP_BUDGET", 1)
    idx, dist = neighbors._nearest(pts, 1)
    assert taken == ["sweep", hand_off]
    assert len(trees) == taken.count("tree")
    assert np.array_equal(idx, ref[0]) and np.array_equal(dist, ref[1])


@pytest.mark.parametrize(
    "ts, delay, dims",
    [
        (henon(3000), 1, 4),
        (henon(10000), 1, 4),
        (logistic(4000), 1, 3),
        (lorenz(5000), 12, 1),
        (white_noise(3000, 7), 1, 1),
    ],
    ids=["henon-3000", "henon-10000", "logistic", "lorenz-T12", "noise"],
)
def test_the_sweep_finishes_every_cloud_the_probe_admits(ts, delay, dims, monkeypatch):
    # a sweep that overran its budget would throw its work away, so the
    # probe must admit only clouds the budget covers
    results = []
    sweep = neighbors._sweep_nearest

    def recorded(*args):
        results.append(sweep(*args))
        return results[-1]

    monkeypatch.setattr(neighbors, "_sweep_nearest", recorded)
    for m in range(1, dims + 1):
        fnn_fraction(ts, delay, m)
    assert len(results) == dims
    assert all(r is not None for r in results)
