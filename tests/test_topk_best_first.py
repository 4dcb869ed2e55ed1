"""Best-first top-k: refinement on the queue, eps from upper bounds.

* ``Measure.upper_bound`` is never below the exact distance, for the
  floats the kernels compute, so the working threshold (the k-th
  smallest bound) never cuts an answer;
* answers equal brute force for every measure and ``k`` up to past the
  store size;
* a candidate whose bound exceeds eps by an ulp — ``math.hypot`` against
  the kernels' ``sqrt(dx*dx + dy*dy)`` — is still refined;
* a deadline that fires mid-search still refines what fully scanned
  ranges delivered;
* ``k`` is an integer >= 1 at every front door.
"""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import SpaceBounds, TraSS, TraSSConfig, Trajectory
from repro.baselines.brute import BruteForceBaseline
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like
from repro.exceptions import QueryError
from repro.kvstore.faults import FaultInjector, FaultSchedule
from repro.measures import get_measure
from repro.measures.base import coordinates, greedy_coupling
from repro.serve import ServingCluster

UNIT = SpaceBounds(0.0, 0.0, 1.0, 1.0)
MEASURES = ("frechet", "dtw", "hausdorff")


# ----------------------------------------------------------------------
# Upper bounds
# ----------------------------------------------------------------------
#: a coarse grid: exact ties and repeated points are common
grid = st.integers(0, 8).map(lambda i: i / 8)
free = st.floats(-1e3, 1e3, allow_nan=False)
point_lists = st.one_of(
    st.lists(st.tuples(grid, grid), min_size=1, max_size=12),
    st.lists(st.tuples(free, free), min_size=1, max_size=12),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(a=point_lists, b=point_lists, repeat=st.integers(0, 3))
@example(a=[(0.0, 0.0)], b=[(0.5, 0.25)], repeat=0)
@example(a=[(0.0, 0.0)], b=[(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)], repeat=2)
@example(a=[(0.1, 0.2), (0.1, 0.2)], b=[(0.3, 0.1)], repeat=1)
def test_upper_bound_is_never_below_distance(a, b, repeat):
    """Single points, duplicated points and ``n != m``: the bound is
    ``>=`` the distance, and refining at it returns the distance."""
    a = a + a[-1:] * repeat  # a stationary tail
    for name in MEASURES:
        measure = get_measure(name)
        for x, y in ((a, b), (b, a)):
            d = measure.distance(x, y)
            bound = measure.upper_bound(x, y)
            assert bound >= d, (name, bound, d)
            assert measure.distance_within(x, y, bound) == d


def reference_greedy_coupling(ax, ay, bx, by):
    """The coupling walk as a generator over a ``sq`` closure, as it was
    before it became one loop (top-k runs it per queued candidate)."""
    n, m = len(ax), len(bx)

    def sq(i, j):
        dx = ax[i] - bx[j]
        dy = ay[i] - by[j]
        return dx * dx + dy * dy

    i = j = 0
    yield sq(0, 0)
    while i < n - 1 and j < m - 1:
        diag, down, right = sq(i + 1, j + 1), sq(i + 1, j), sq(i, j + 1)
        if diag <= down and diag <= right:
            i += 1
            j += 1
            yield diag
        elif down <= right:
            i += 1
            yield down
        else:
            j += 1
            yield right
    for i in range(i + 1, n):
        yield sq(i, j)
    for j in range(j + 1, m):
        yield sq(i, j)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=point_lists, b=point_lists)
def test_greedy_coupling_equals_reference_walk(a, b):
    coords = (*coordinates(a, "a"), *coordinates(b, "b"))
    assert greedy_coupling(*coords) == list(reference_greedy_coupling(*coords))


# ----------------------------------------------------------------------
# Exactness against brute force
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tdrive_store():
    data = tdrive_like(120, seed=17)
    engine = TraSS.build(
        data,
        TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=14, shards=4),
    )
    return engine, data


@pytest.mark.parametrize("name", MEASURES)
@pytest.mark.parametrize("k", [1, 10, 50, 130])
def test_topk_equals_brute_force(tdrive_store, name, k):
    engine, data = tdrive_store
    brute = BruteForceBaseline(name)
    brute.build(data)
    for query in data[:: len(data) // 6]:
        want = brute.topk_search(query, k).ranked
        got = engine.topk_search(query, k, measure=name)
        assert len(got.answers) == min(k, len(data))
        # Ties at the k-th distance may pick any of the tied trajectories.
        assert [d for d, _ in got.answers] == [d for d, _ in want]
        measure = get_measure(name)
        points = {t.tid: t.points for t in data}
        for d, tid in got.answers:
            assert measure.distance(query.points, points[tid]) == d
        assert got.completeness == 1.0


def test_scan_callback_runs_no_measure(tdrive_store):
    """Refinement is on the queue: no measure kernel runs inside a
    range's scan callback, and most survivors are never refined."""
    engine, data = tdrive_store
    executor, measure = engine.store.executor, engine.measure
    inside = []
    refined = []

    def execute(ranges, fn, **kwargs):
        def callback(scan_range):
            inside.append(True)
            try:
                fn(scan_range)
            finally:
                inside.pop()

        return type(executor).execute(executor, ranges, callback, **kwargs)

    def distance_within(*args):
        assert not inside, "a measure ran inside the scan callback"
        refined.append(1)
        return type(measure).distance_within(measure, *args)

    executor.execute = execute
    measure.distance_within = distance_within
    try:
        received = sum(
            engine.topk_search(query, 10).candidates for query in data[:10]
        )
    finally:
        del executor.execute
        del measure.distance_within
    assert 0 < len(refined) < received


# ----------------------------------------------------------------------
# The float slack
# ----------------------------------------------------------------------
def _hypot_exceeds_sqrt_pairs(count):
    """Point pairs where ``math.hypot`` of the offset is one ulp above
    ``sqrt(dx*dx + dy*dy)``, the value every kernel computes."""
    rng = random.Random(33)
    pairs = []
    while len(pairs) < count:
        qx, qy = round(rng.uniform(0.2, 0.8), 6), round(rng.uniform(0.2, 0.8), 6)
        tx = round(qx + rng.uniform(-0.05, 0.05), 6)
        ty = round(qy + rng.uniform(-0.05, 0.05), 6)
        dx, dy = qx - tx, qy - ty
        if math.hypot(dx, dy) > math.sqrt(dx * dx + dy * dy):
            pairs.append(((qx, qy), (tx, ty)))
    return pairs


@pytest.mark.parametrize("name", MEASURES)
def test_kth_answer_set_by_an_endpoint_pair_is_kept(name):
    """The k-th distance is a start-point pair whose lower bound
    (``hypot``) is one ulp above the exact distance and the upper bound
    (= eps): the candidate must still be refined, not dropped."""
    measure = get_measure(name)
    for (qx, qy), (tx, ty) in _hypot_exceeds_sqrt_pairs(4):
        query = Trajectory("q", [(qx, qy)])
        twin = Trajectory("twin", [(tx, ty)])
        # Same start pair, and an end that coincides with the query's.
        walk = Trajectory("walk", [(tx, ty), (qx, qy)])
        far = Trajectory("far", [(0.95, 0.05), (0.96, 0.05)])
        engine = TraSS.build(
            [twin, far], TraSSConfig(bounds=UNIT, max_resolution=6, shards=2)
        )
        got = engine.topk_search(query, 1, measure=name)
        want = measure.distance(query.points, twin.points)
        assert got.answers == [(want, "twin")]

        start = Trajectory("q2", [(qx, qy), (qx, qy)])
        engine = TraSS.build(
            [walk, far], TraSSConfig(bounds=UNIT, max_resolution=6, shards=2)
        )
        got = engine.topk_search(start, 1, measure=name)
        want = measure.distance(start.points, walk.points)
        assert got.answers == [(want, "walk")]


# ----------------------------------------------------------------------
# A deadline mid-search
# ----------------------------------------------------------------------
def test_deadline_refines_every_candidate_of_scanned_ranges():
    """Once the deadline fires no unit is scanned, but every candidate
    a fully scanned range delivered is still refined: the answers are
    the exact top-k of what was delivered."""
    data = tdrive_like(150, seed=23)
    engine = TraSS.build(
        data,
        TraSSConfig(
            bounds=TDRIVE_BOUNDS,
            max_resolution=12,
            shards=4,
            degraded_mode=True,
            scan_deadline_seconds=1.0,
        ),
    )
    executor = engine.store.executor
    delivered = set()
    scan_chunk = executor.scan_chunk

    def recording_scan_chunk(scan_range, row_filter=None):
        rows = scan_chunk(scan_range, row_filter)
        delivered.update(row_filter.accepted[bytes(key)].tid for key, _ in rows)
        return rows

    executor.scan_chunk = recording_scan_chunk
    engine.install_fault_injector(
        FaultInjector(
            FaultSchedule(seed=4, slow_region_prob=0.5, slow_region_seconds=0.3)
        )
    )
    measure = engine.measure
    points = {t.tid: t.points for t in data}
    fired = 0
    try:
        for query in data[:12]:
            delivered.clear()
            result = engine.topk_search(query, 10)
            if not result.resilience.deadline_exceeded:
                continue
            fired += 1
            assert result.resilience.ranges_completed > 0
            exact = sorted(
                measure.distance(query.points, points[tid]) for tid in delivered
            )
            assert [d for d, _ in result.answers] == exact[:10]
    finally:
        engine.install_fault_injector(None)
    assert fired >= 3


# ----------------------------------------------------------------------
# k at the front doors
# ----------------------------------------------------------------------
BAD_K = [2.5, True, math.inf, math.nan, "3"]


@pytest.fixture(scope="module")
def small_engine_and_query():
    data = [
        Trajectory(f"t{i}", [(0.1 * i + 0.05, 0.5), (0.1 * i + 0.06, 0.51)])
        for i in range(8)
    ]
    engine = TraSS.build(data, TraSSConfig(bounds=UNIT, max_resolution=8, shards=2))
    return engine, data[0]


@pytest.mark.parametrize("k", BAD_K, ids=repr)
def test_engine_rejects_bad_k(small_engine_and_query, k):
    engine, query = small_engine_and_query
    with pytest.raises(QueryError):
        engine.topk_search(query, k)


@pytest.mark.parametrize("k", BAD_K, ids=repr)
def test_batch_rejects_bad_k(small_engine_and_query, k):
    engine, query = small_engine_and_query
    with pytest.raises(QueryError):
        engine.topk_search_many([query, query], k)


@pytest.mark.parametrize("k", BAD_K, ids=repr)
def test_cluster_rejects_bad_k(small_engine_and_query, k):
    """The coordinator checks ``k`` before admission or any worker."""
    engine, query = small_engine_and_query
    cluster = ServingCluster.from_engine(engine, partitions=2)
    with pytest.raises(QueryError):
        cluster.topk_search(query, k)
    with pytest.raises(QueryError):
        cluster.topk_search_many([query], k)
