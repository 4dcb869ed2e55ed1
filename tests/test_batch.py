"""Multi-query batch execution and range-gap coalescing.

The contracts under test:

* a batch of threshold queries answers bit-identically to sequential
  execution while scanning strictly fewer rows (scan sharing), also
  under masked fault injection;
* ``range_merge_gap`` coalesces near-adjacent ranges without changing
  answers, and survives a save/load round trip.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import TraSS, TraSSConfig
from repro.exceptions import QueryError

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
    def test_answers_unchanged_and_seeks_drop(self, small_dataset):
        config = TraSSConfig(
            bounds=BEIJING, max_resolution=12, dp_tolerance=0.002, shards=4
        )
        rng = random.Random(13)
        queries = [make_walk(f"g{i}", rng) for i in range(12)]
        base = TraSS.build(small_dataset, config)
        expected = [base.threshold_search(q, 0.02) for q in queries]
        base_seeks = base.metrics.range_seeks

        gapped = TraSS.build(
            small_dataset, dataclasses.replace(config, range_merge_gap=4)
        )
        got = [gapped.threshold_search(q, 0.02) for q in queries]
        for a, b in zip(expected, got):
            assert b.answers == a.answers
        assert gapped.metrics.ranges_merged > 0
        assert gapped.metrics.range_seeks < base_seeks

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
