"""Multi-query batch execution and range-gap coalescing.

The contracts under test:

* a batch of threshold queries answers bit-identically to sequential
  execution while scanning strictly fewer rows (scan sharing), also
  under masked fault injection;
* ``range_merge_gap`` coalesces near-adjacent ranges without changing
  answers (it can only add scanned rows), and survives a save/load
  round trip;
* there is one scan path: a single query is a batch of one, a batch
  decodes each row once, and its counters are the sums of its queries
  run one at a time.
"""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro import TraSS, TraSSConfig
from repro.core.storage import INTEGER_KEYS, STRING_KEYS
from repro.core.threshold import _shared_plan, scan_and_refine
from repro.exceptions import QueryError
from repro.kvstore.table import ScanRange

from .conftest import BEIJING, make_walk


# ----------------------------------------------------------------------
# End-to-end equivalence on an engine
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def batch_engine():
    rng = random.Random(21)
    # Clustered walks so the 32-query workload genuinely overlaps.
    trajectories = [make_walk(f"t{i}", rng) for i in range(200)]
    config = TraSSConfig(
        bounds=BEIJING, max_resolution=12, dp_tolerance=0.002, shards=4
    )
    return TraSS.build(trajectories, config)


@pytest.fixture(scope="module")
def batch_queries():
    rng = random.Random(77)
    return [make_walk(f"q{i}", rng, n_range=(8, 20)) for i in range(32)]


@pytest.fixture(scope="module")
def sequential_results(batch_engine, batch_queries):
    return [batch_engine.threshold_search(q, 0.02) for q in batch_queries]


def _assert_same(seq_results, got_results, check_stats=True):
    assert len(got_results) == len(seq_results)
    for a, b in zip(seq_results, got_results):
        assert b.answers == a.answers
        assert b.candidates == a.candidates
        if check_stats:
            assert b.filter_stats == a.filter_stats


class TestBatchExecution:
    def test_bit_identical_and_fewer_rows(
        self, batch_engine, batch_queries, sequential_results
    ):
        metrics = batch_engine.metrics
        metrics.reset()
        for q in batch_queries:
            batch_engine.threshold_search(q, 0.02)
        sequential_rows = metrics.rows_scanned
        metrics.reset()
        results = batch_engine.threshold_search_many(batch_queries, 0.02)
        batch_rows = metrics.rows_scanned
        _assert_same(sequential_results, results)
        assert metrics.batch_rows_shared > 0
        assert metrics.batch_ranges_merged > 0
        assert batch_rows < sequential_rows
        # per-query accounting still reflects the query's own plan
        for a, b in zip(sequential_results, results):
            assert b.retrieved_rows == a.retrieved_rows

    def test_under_masked_faults(self, batch_engine, batch_queries,
                                 sequential_results):
        from repro.kvstore.faults import FaultInjector, FaultSchedule

        injector = FaultInjector(
            FaultSchedule(seed=11, region_unavailable_prob=0.3)
        )
        batch_engine.install_fault_injector(injector)
        try:
            results = batch_engine.threshold_search_many(batch_queries, 0.02)
        finally:
            batch_engine.install_fault_injector(None)
        assert all(r.completeness == 1.0 for r in results)
        assert results[0].resilience.faults_encountered > 0
        _assert_same(sequential_results, results)

    def test_per_query_eps_list(self, batch_engine, batch_queries):
        eps_list = [0.01 + 0.001 * i for i in range(len(batch_queries))]
        expected = [
            batch_engine.threshold_search(q, e)
            for q, e in zip(batch_queries, eps_list)
        ]
        # a list, a tuple or a one-shot iterator: any iterable of eps
        for eps in (eps_list, tuple(eps_list), iter(eps_list)):
            results = batch_engine.threshold_search_many(batch_queries, eps)
            _assert_same(expected, results)

    def test_other_measures(self, batch_engine, batch_queries):
        for name in ("hausdorff", "dtw"):
            expected = [
                batch_engine.threshold_search(q, 0.02, measure=name)
                for q in batch_queries[:8]
            ]
            results = batch_engine.threshold_search_many(
                batch_queries[:8], 0.02, measure=name
            )
            _assert_same(expected, results)

    def test_topk_many_matches_single(self, batch_engine, batch_queries):
        expected = [batch_engine.topk_search(q, 4) for q in batch_queries[:4]]
        results = batch_engine.topk_search_many(batch_queries[:4], 4)
        for a, b in zip(expected, results):
            assert b.answers == a.answers

    def test_validation(self, batch_engine, batch_queries):
        assert batch_engine.threshold_search_many([], 0.02) == []
        with pytest.raises(QueryError):
            batch_engine.threshold_search_many(batch_queries[:2], [0.01])
        with pytest.raises(QueryError):
            batch_engine.threshold_search_many(batch_queries[:1], -1.0)
        for nan in (float("nan"), [float("nan")]):
            with pytest.raises(QueryError):
                batch_engine.threshold_search_many(batch_queries[:1], nan)
        with pytest.raises(QueryError):
            batch_engine.threshold_search(batch_queries[0], float("nan"))
        # k is validated whether or not there is anything to answer
        with pytest.raises(QueryError):
            batch_engine.topk_search_many(batch_queries[:2], 0)
        with pytest.raises(QueryError):
            batch_engine.topk_search_many([], 0)


# ----------------------------------------------------------------------
# Range-gap coalescing (planner satellite)
# ----------------------------------------------------------------------
class TestRangeMergeGap:
    def test_answers_unchanged_and_ranges_merged(self, small_dataset):
        """A gap bridges planned ranges, so it can only add rows.  It no
        longer promises fewer seeks: only occupied (range, salt) pairs
        are dispatched, and a bridged range is occupied more often."""
        config = TraSSConfig(
            bounds=BEIJING, max_resolution=12, dp_tolerance=0.002, shards=4
        )
        rng = random.Random(13)
        queries = [make_walk(f"g{i}", rng) for i in range(12)]
        base = TraSS.build(small_dataset, config)
        expected = [base.threshold_search(q, 0.02) for q in queries]

        gapped = TraSS.build(
            small_dataset, dataclasses.replace(config, range_merge_gap=4)
        )
        got = [gapped.threshold_search(q, 0.02) for q in queries]
        for a, b in zip(expected, got):
            assert b.answers == a.answers
            assert b.retrieved_rows >= a.retrieved_rows
        assert gapped.metrics.ranges_merged > 0
        assert gapped.metrics.rows_scanned >= base.metrics.rows_scanned

    def test_negative_gap_rejected(self):
        with pytest.raises(QueryError):
            TraSSConfig(range_merge_gap=-1)


# ----------------------------------------------------------------------
# Persistence of the planner knob
# ----------------------------------------------------------------------
def test_save_load_roundtrip(tmp_path, small_dataset):
    config = TraSSConfig(
        bounds=BEIJING,
        max_resolution=12,
        dp_tolerance=0.002,
        shards=4,
        range_merge_gap=3,
    )
    engine = TraSS.build(small_dataset[:60], config)
    query = small_dataset[0]
    expected = engine.threshold_search(query, 0.02)
    engine.save(str(tmp_path / "store"))
    loaded = TraSS.load(str(tmp_path / "store"))
    assert loaded.config.range_merge_gap == 3
    assert loaded.pruner.range_merge_gap == 3
    got = loaded.threshold_search(query, 0.02)
    assert got.answers == expected.answers


# ----------------------------------------------------------------------
# One scan path: a single query is a batch of one, and a batch's
# counters are the sums its queries would record one at a time
# ----------------------------------------------------------------------
_BATCH_CONFIG = dict(
    bounds=BEIJING, max_resolution=12, dp_tolerance=0.002, shards=4
)

#: counters a shared scan must leave at the sequential sums
_ADDITIVE = ("filter_evaluations", "filter_rejections", "rows_returned")


def _walks(prefix, count, seed, **kwargs):
    rng = random.Random(seed)
    return [make_walk(f"{prefix}{i}", rng, **kwargs) for i in range(count)]


def _comparable(result):
    """Every result field but the wall-clock timings."""
    return (
        result.answers,
        result.candidates,
        result.retrieved_rows,
        result.pruning,
        result.resilience,
        result.filter_stats,
    )


def _delta(engine, run):
    before = engine.metrics.snapshot()
    out = run()
    return out, engine.metrics.diff(before)


@pytest.mark.parametrize("key_encoding", [INTEGER_KEYS, STRING_KEYS])
@pytest.mark.parametrize("cache_mb", [0, 16])
@pytest.mark.parametrize("measure", ["frechet", "hausdorff", "dtw"])
def test_batch_counters_are_sequential_sums(
    batch_queries, measure, cache_mb, key_encoding
):
    queries = batch_queries[:16]
    engine = TraSS.build(
        _walks("t", 200, 21),
        TraSSConfig(cache_mb=cache_mb, **_BATCH_CONFIG),
        key_encoding,
    )
    expected, sequential = _delta(
        engine,
        lambda: [engine.threshold_search(q, 0.02, measure=measure)
                 for q in queries],
    )
    results, batch = _delta(
        engine,
        lambda: engine.threshold_search_many(queries, 0.02, measure=measure),
    )
    _assert_same(expected, results)
    assert batch["batch_rows_shared"] > 0
    assert (
        batch["rows_scanned"] + batch["batch_rows_shared"]
        == sequential["rows_scanned"]
    )
    for name in _ADDITIVE:
        assert batch[name] == sequential[name], name


def test_batch_decodes_each_row_once(batch_queries):
    engine = TraSS.build(
        _walks("t", 200, 21), TraSSConfig(cache_mb=16, **_BATCH_CONFIG)
    )
    _, delta = _delta(
        engine, lambda: engine.threshold_search_many(batch_queries, 0.02)
    )
    assert delta["batch_rows_shared"] > 0
    lookups = delta["record_cache_hits"] + delta["record_cache_misses"]
    assert lookups == delta["rows_scanned"]


def test_refined_rows_leave_the_accepted_map(
    monkeypatch, batch_engine, batch_queries, sequential_results
):
    """Each delivered row is taken out of the shared filter once, so
    nothing accepted is left behind when the search returns.  Under
    masked faults a retried range re-accepts its rows, and still
    delivers each key once."""
    from repro.core import threshold
    from repro.kvstore.faults import FaultInjector, FaultSchedule

    filters = []

    class Recording(threshold._SharedRowFilter):
        def __init__(self, *args):
            super().__init__(*args)
            filters.append(self)

    monkeypatch.setattr(threshold, "_SharedRowFilter", Recording)
    results = batch_engine.threshold_search_many(batch_queries, 0.02)
    _assert_same(sequential_results, results)
    batch_engine.install_fault_injector(
        FaultInjector(FaultSchedule(seed=11, region_unavailable_prob=0.3))
    )
    try:
        faulted = batch_engine.threshold_search_many(batch_queries, 0.02)
    finally:
        batch_engine.install_fault_injector(None)
    assert faulted[0].resilience.retries > 0
    _assert_same(sequential_results, faulted)
    assert len(filters) == 2
    assert sum(r.candidates for r in results) > 0
    assert [f.accepted for f in filters] == [{}, {}]


@pytest.mark.parametrize("key_encoding", [INTEGER_KEYS, STRING_KEYS])
def test_batch_of_one_is_the_single_query(batch_queries, key_encoding):
    data = _walks("t", 200, 21)
    config = TraSSConfig(cache_mb=16, **_BATCH_CONFIG)
    single = TraSS.build(data, config, key_encoding)
    batched = TraSS.build(data, config, key_encoding)
    for query in batch_queries[:6]:
        want, want_io = _delta(
            single, lambda: single.threshold_search(query, 0.02)
        )
        got, got_io = _delta(
            batched, lambda: batched.threshold_search_many([query], 0.02)
        )
        assert len(got) == 1
        assert _comparable(got[0]) == _comparable(want)
        assert got_io == want_io


def test_shard_subsets_partition_the_single_query(batch_engine, batch_queries):
    """The worker's call: a batch of one restricted to owned salts.  The
    partials over a partition of the salts add up to the all-salts
    result, I/O included."""
    store, measure = batch_engine.store, batch_engine.measure
    for query in batch_queries[:6]:
        plan = batch_engine.plan(query, 0.02)
        full, full_io = _delta(
            batch_engine,
            lambda: scan_and_refine(
                store, measure, [query], [0.02], [plan.ranges]
            )[0],
        )
        answers, candidates, rows, total = {}, 0, 0, 0
        io = dict.fromkeys(full_io, 0)
        for owned in ([0, 2], [1, 3]):
            (part,), part_io = _delta(
                batch_engine,
                lambda: scan_and_refine(
                    store, measure, [query], [0.02], [plan.ranges],
                    shards=owned,
                ),
            )
            assert answers.keys().isdisjoint(part.answers)
            answers.update(part.answers)
            candidates += part.candidates
            rows += part.retrieved_rows
            total += part.resilience.ranges_total
            for name, value in part_io.items():
                io[name] += value
        assert answers == full.answers
        assert candidates == full.candidates
        assert rows == full.retrieved_rows
        assert total == full.resilience.ranges_total
        for name in ("rows_scanned", "range_seeks", *_ADDITIVE):
            assert io[name] == full_io[name], name


# ----------------------------------------------------------------------
# The shared plan: merged ranges and per-key subscribers
# ----------------------------------------------------------------------
_key = st.integers(0, 40)


def _one_query_ranges(bounds):
    """Disjoint, non-touching ranges, as one query's plan is."""
    cuts = sorted(set(bounds))
    return [
        ScanRange(bytes([lo]), bytes([hi]))
        for lo, hi in zip(cuts[::3], cuts[1::3])
    ]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.lists(_key, max_size=12), min_size=1, max_size=5))
def test_shared_plan_covers_the_union_and_routes_every_key(bounds):
    pairs = [_one_query_ranges(b) for b in bounds]
    plan, holders, ends, subscribers = _shared_plan(pairs)
    assert len(ends) == len(subscribers)
    # every query range lies inside the merged range said to hold it
    for own, held in zip(pairs, holders):
        assert len(held) == len(own)
        for r, g in zip(own, held):
            assert plan[g].start <= r.start and r.stop <= plan[g].stop
    # merged ranges are sorted, disjoint and non-touching
    for a, b in zip(plan, plan[1:]):
        assert a.stop < b.start
    for k in range(42):
        key = bytes([k])
        wanted = tuple(
            qid
            for qid, own in enumerate(pairs)
            if any(r.start <= key < r.stop for r in own)
        )
        in_plan = any(r.start <= key < r.stop for r in plan)
        assert in_plan == bool(wanted)
        if in_plan:
            assert subscribers[bisect_right(ends, key)] == wanted
    # a query alone keeps its own ranges and has one segment (the
    # general merge, no special case)
    if len(pairs) == 1 and pairs[0]:
        assert plan == pairs[0]
        assert subscribers == [(0,)]
