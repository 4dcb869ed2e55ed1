"""Threshold planning walks only occupied space, and loses nothing.

An engine's :class:`~repro.core.pruning.GlobalPruner` reads the store's
occupied index values (``TrajectoryStore.holds_index_values``): a cell
whose subtree holds no value is dropped before Lemmas 8-9, and a cell
whose own code block holds none emits no code.  The paper's data-free
Algorithm 1 (a pruner built without ``occupancy``) is the oracle.  Over
generated stores (both key encodings, in memory and after a compact
save -> load), queries (single points included) and thresholds (``0``
included), the two plans must cover the same occupied index values,
dispatch the same number of salted scan ranges, scan the same rows and
return the same answers, and each planned range must lie inside one of
the data-free plan's.  The count is the delicate one: dropping an empty
subtree between two occupied collapsed siblings splits what the
data-free plan scans as one range, and the planner rejoins exactly the
gaps the data-free plan covers.

The plan cache keys on the store's occupancy version, so a plan made
before a new index value appeared is never served after it; the serving
coordinator, which holds no rows, keeps the data-free plan.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import TraSS, TraSSConfig, Trajectory
from repro.core.pruning import ROOT_CELL, GlobalPruner, PruningKernel
from repro.core.storage import INTEGER_KEYS, STRING_KEYS
from repro.core.threshold import threshold_search
from repro.index.bounds import SpaceBounds

UNIT = SpaceBounds(0.0, 0.0, 1.0, 1.0)


def _config(max_resolution: int, shards: int = 3) -> TraSSConfig:
    return TraSSConfig(
        bounds=UNIT, max_resolution=max_resolution, shards=shards,
        dp_tolerance=0.001,
    )


def _data_free(engine: TraSS) -> GlobalPruner:
    return GlobalPruner.from_config(engine.store.index, engine.config)


def _covered(store, plan):
    """The occupied index values a plan's ranges cover."""
    return {
        value
        for value in store.value_histogram
        if any(r.start <= value < r.stop for r in plan.ranges)
    }


@st.composite
def trajectories(draw, max_resolution: int, tid: str):
    """A trajectory anchored on (or just inside) a max-resolution grid
    cell, from a single point to a tenth of the space across: grid
    anchors put values at the first and last index of subtrees."""
    cells = 2**max_resolution
    offset = draw(st.sampled_from([0.0, 0.5, 1.0 - 1e-9]))
    x = (draw(st.integers(0, cells - 1)) + offset) / cells
    y = (draw(st.integers(0, cells - 1)) + offset) / cells
    extent = draw(st.sampled_from([0.0, 1.0 / cells, 4.0 / cells, 0.02, 0.1]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    points = [(x, y)]
    for _ in range(draw(st.integers(0, 5))):
        points.append(
            (
                min(1.0, max(0.0, x + rng.uniform(-extent, extent))),
                min(1.0, max(0.0, y + rng.uniform(-extent, extent))),
            )
        )
    return Trajectory(tid, points)


@st.composite
def cases(draw):
    max_resolution = draw(st.sampled_from([4, 7]))
    count = draw(st.integers(1, 24))
    data = [
        draw(trajectories(max_resolution, f"t{i}")) for i in range(count)
    ]
    queries = []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            # a stored trajectory, moved by up to a few cells
            base = draw(st.sampled_from(data))
            shift = draw(st.sampled_from([0.0, 0.5, 3.0])) / 2**max_resolution
            points = [
                (min(1.0, x + shift), min(1.0, y + shift))
                for x, y in base.points
            ]
            queries.append(Trajectory(f"q{i}", points))
        else:
            queries.append(draw(trajectories(max_resolution, f"q{i}")))
    eps = draw(
        st.one_of(
            st.sampled_from([0.0, 2.0**-max_resolution, 0.01, 0.05, 0.3]),
            st.floats(0.0, 0.2),
        )
    )
    return max_resolution, data, queries, eps


@pytest.fixture(scope="module")
def snapshot_dirs(tmp_path_factory):
    """A fresh directory per call, removed once with the module's."""
    root = tmp_path_factory.mktemp("snapshots")
    return (str(root / str(i)) for i in itertools.count())


@given(
    case=cases(),
    encoding=st.sampled_from([INTEGER_KEYS, STRING_KEYS]),
    reload=st.booleans(),
)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_occupied_plan_covers_what_the_data_free_plan_covers(
    snapshot_dirs, case, encoding, reload
):
    max_resolution, data, queries, eps = case
    engine = TraSS.build(data, _config(max_resolution), encoding)
    if reload:
        directory = next(snapshot_dirs)
        engine.save(directory)
        engine = TraSS.load(directory)
    store, free = engine.store, _data_free(engine)
    assert engine.pruner.occupancy is store
    for query in queries:
        planned = engine.pruner.prune(query, eps)
        oracle = free.prune(query, eps)
        assert not planned.truncated and not oracle.truncated
        assert _covered(store, planned) == _covered(store, oracle)
        assert len(store.scan_ranges_for(planned.ranges)) == len(
            store.scan_ranges_for(oracle.ranges)
        )
        # never a wider key range than the data-free plan scans
        assert all(
            any(o.start <= r.start and r.stop <= o.stop for o in oracle.ranges)
            for r in planned.ranges
        )
        got = engine.threshold_search(query, eps)
        want = threshold_search(store, free, engine.measure, query, eps)
        assert got.answers == want.answers
        assert got.retrieved_rows == want.retrieved_rows
        assert got.candidates == want.candidates


def test_a_value_at_the_last_index_of_a_subtree_is_planned():
    """A single point in the top-right max-resolution cell of its parent
    is the last index value of the parent's subtree; a store holding
    only it must still be walked to it."""
    max_resolution = 4
    cells = 2**max_resolution
    point = ((5 + 0.5) / cells, (11 + 0.5) / cells)  # child 3 of (2, 5)
    engine = TraSS.build([Trajectory("t", [point])], _config(max_resolution))
    store = engine.store
    (value,) = store.value_histogram
    kernel = PruningKernel(store.index, Trajectory("q", [point]))
    # walk down to the parent, cell (2, 5) one level above the maximum
    cell = ROOT_CELL
    for shift in range(max_resolution - 2, -1, -1):
        cell = next(
            c
            for c in kernel.children(cell)
            if (c[1], c[2]) == (2 >> shift, 5 >> shift)
        )
    assert kernel.subtree_span(cell)[1] == value + 1
    for eps in (0.0, 0.5 / cells, 0.05):
        query = Trajectory("q", [point])
        plan = engine.pruner.prune(query, eps)
        assert _covered(store, plan) == {value}
        assert engine.threshold_search(query, eps).answers == {"t": 0.0}


def test_kernel_spans_cover_the_root():
    engine = TraSS(_config(5))
    index = engine.store.index
    kernel = PruningKernel(index, Trajectory("q", [(0.5, 0.5)]))
    assert kernel.subtree_span(ROOT_CELL) == (0, index.total_index_spaces)
    assert kernel.code_block(ROOT_CELL) == (
        index.root_block_start,
        index.total_index_spaces,
    )
    leaf = ROOT_CELL
    for _ in range(5):
        leaf = kernel.children(leaf)[3]
    first, stop = kernel.code_block(leaf)
    assert stop - first == 10 and kernel.subtree_span(leaf) == (first, stop)


def test_empty_store_plans_nothing_and_counts_the_root():
    engine = TraSS(_config(5))
    plan = engine.pruner.prune(Trajectory("q", [(0.3, 0.3), (0.4, 0.4)]), 0.1)
    assert plan.ranges == [] and plan.values == []
    assert plan.elements_visited == plan.elements_pruned_empty == 1


class TestPlanCache:
    """A cached plan is reused only while the occupied values stay."""

    QUERY = Trajectory("q", [(0.30, 0.30), (0.31, 0.305), (0.32, 0.31)])
    EPS = 0.005

    def _engine(self):
        far = [
            Trajectory(f"far{i}", [(0.8 + 0.01 * i, 0.8), (0.81 + 0.01 * i, 0.81)])
            for i in range(6)
        ]
        engine = TraSS.build(far, _config(10))
        assert engine.config.plan_cache_size > 0
        return engine

    def test_a_new_value_inside_the_data_free_plan_misses_the_cache(self):
        engine = self._engine()
        store, metrics = engine.store, engine.metrics
        assert engine.threshold_search(self.QUERY, self.EPS).answers == {}
        misses = metrics.plan_cache_misses
        assert engine.threshold_search(self.QUERY, self.EPS).answers == {}
        assert metrics.plan_cache_misses == misses  # a hit
        # The newcomer lands in a subtree that held nothing and that
        # the data-free plan covers.
        near = Trajectory("near", list(self.QUERY.points))
        value = store.index.index(near).value
        oracle = _data_free(engine).prune(self.QUERY, self.EPS)
        assert any(r.start <= value < r.stop for r in oracle.ranges)
        assert not store.holds_index_values(value, value + 1)
        version = store.occupancy_version
        engine.add(near)
        assert store.occupancy_version == version + 1
        hits = metrics.plan_cache_hits
        result = engine.threshold_search(self.QUERY, self.EPS)
        assert result.answers == {"near": 0.0}
        assert metrics.plan_cache_misses == misses + 1
        assert metrics.plan_cache_hits == hits

    def test_a_repeated_value_keeps_the_cached_plan(self):
        engine = self._engine()
        store, metrics = engine.store, engine.metrics
        engine.threshold_search(self.QUERY, self.EPS)
        version = store.occupancy_version
        hits = metrics.plan_cache_hits
        twin = Trajectory("far0_twin", list(store.all_records())[0].points)
        engine.add(twin)
        assert store.occupancy_version == version
        engine.threshold_search(self.QUERY, self.EPS)
        assert metrics.plan_cache_hits == hits + 1
