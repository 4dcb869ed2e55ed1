"""Seeded chaos suite: end-to-end resilience of the query pipeline.

Pins the three acceptance properties of the fault-injection layer at
the engine level:

(a) transient faults are fully masked by retries — query answers equal
    the fault-free answers while the retry counters prove faults
    actually fired;
(b) in degraded mode a persistently failing store still answers, and
    the result reports the exact skipped key ranges and a completeness
    below 1.0;
(c) with no injector installed (or a no-op schedule) the pipeline is
    byte-identical to the fault-free run, I/O counters included.

Everything is seeded: same schedule, same workload, same faults.
"""

import pytest

from repro import TraSS, TraSSConfig
from repro.core.executor import RetryPolicy
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like
from repro.kvstore.faults import FaultInjector, FaultSchedule

pytestmark = pytest.mark.chaos


def build_engine(trajectories=100, seed=21, **config_overrides):
    data = tdrive_like(trajectories, seed=seed)
    config = TraSSConfig(
        bounds=TDRIVE_BOUNDS,
        max_resolution=12,
        dp_tolerance=0.005,
        shards=4,
        **config_overrides,
    )
    return TraSS.build(data, config), data


def run_queries(engine, data, eps=0.02, k=5, n_queries=6):
    """Fixed query mix; returns comparable answer structures."""
    threshold = []
    topk = []
    for query in data[:n_queries]:
        threshold.append(set(engine.threshold_search(query, eps).answers))
        topk.append([tid for _, tid in engine.topk_search(query, k).answers])
    return threshold, topk


class TestFaultFreeParity:
    def test_noop_schedule_changes_nothing(self):
        engine, data = build_engine()
        baseline = run_queries(engine, data)
        engine.store.table.metrics.reset()
        run_queries(engine, data)
        clean_io = engine.store.table.metrics.snapshot()

        engine.install_fault_injector(FaultInjector(FaultSchedule(seed=5)))
        try:
            engine.store.table.metrics.reset()
            assert run_queries(engine, data) == baseline
            assert engine.store.table.metrics.snapshot() == clean_io
        finally:
            engine.install_fault_injector(None)

    def test_detached_injector_restores_clean_runs(self):
        engine, data = build_engine()
        baseline = run_queries(engine, data)
        engine.install_fault_injector(
            FaultInjector(
                FaultSchedule(seed=9, region_unavailable_prob=0.5)
            )
        )
        run_queries(engine, data)
        engine.install_fault_injector(None)
        engine.store.table.metrics.reset()
        assert run_queries(engine, data) == baseline
        assert engine.store.table.metrics.faults_injected == 0

    def test_detach_resets_open_circuit_breaker(self):
        """An open circuit earned under chaos must not survive into
        fault-free runs: detaching the injector starts a fresh epoch."""
        engine, data = build_engine(
            degraded_mode=True, retry_max_attempts=2
        )
        baseline = run_queries(engine, data, n_queries=3)
        engine.install_fault_injector(
            FaultInjector(
                FaultSchedule(
                    seed=2,
                    region_unavailable_prob=1.0,
                    max_consecutive_failures=10_000_000,
                )
            )
        )
        run_queries(engine, data, n_queries=3)
        assert engine.store.table.metrics.breaker_trips > 0
        assert engine.store.executor.breaker.any_open
        engine.install_fault_injector(None)
        assert not engine.store.executor.breaker.any_open
        assert run_queries(engine, data, n_queries=3) == baseline


class TestMasking:
    """Criterion (a): transient faults never change answers."""

    def test_outages_masked_by_retries(self):
        engine, data = build_engine(retry_max_attempts=6)
        baseline = run_queries(engine, data)

        injector = FaultInjector(
            FaultSchedule(
                seed=3,
                region_unavailable_prob=0.4,
                max_consecutive_failures=2,
            )
        )
        engine.install_fault_injector(injector)
        try:
            chaotic = run_queries(engine, data)
        finally:
            engine.install_fault_injector(None)

        assert chaotic == baseline
        assert injector.unavailable_injected > 0
        assert engine.store.table.metrics.retries > 0
        assert engine.store.table.metrics.ranges_skipped == 0

    def test_stragglers_and_disruptions_masked(self):
        engine, data = build_engine(retry_max_attempts=8)
        baseline = run_queries(engine, data)
        injector = FaultInjector(
            FaultSchedule(
                seed=17,
                region_unavailable_prob=0.2,
                max_consecutive_failures=1,
                slow_region_prob=0.3,
                slow_region_seconds=0.05,
                split_prob=0.01,
                compact_prob=0.01,
            )
        )
        engine.install_fault_injector(injector)
        try:
            chaotic = run_queries(engine, data)
        finally:
            engine.install_fault_injector(None)
        assert chaotic == baseline
        assert injector.latency_injected > 0
        assert injector.virtual_seconds > 0

    def test_completeness_reported_on_results(self):
        engine, data = build_engine()
        result = engine.threshold_search(data[0], 0.02)
        assert result.completeness == 1.0
        assert result.skipped_ranges == []
        topk = engine.topk_search(data[0], 5)
        assert topk.completeness == 1.0
        assert topk.skipped_ranges == []


class TestDegradedMode:
    """Criterion (b): exact skipped ranges + completeness < 1.0."""

    def _persistent_failure_injector(self):
        return FaultInjector(
            FaultSchedule(
                seed=2,
                region_unavailable_prob=1.0,
                max_consecutive_failures=10_000_000,
            )
        )

    def test_threshold_reports_skipped_ranges(self):
        engine, data = build_engine(
            degraded_mode=True, retry_max_attempts=2
        )
        engine.install_fault_injector(self._persistent_failure_injector())
        try:
            result = engine.threshold_search(data[0], 0.02)
        finally:
            engine.install_fault_injector(None)
        report = result.resilience
        assert report is not None
        assert result.completeness == 0.0
        assert report.ranges_completed == 0
        assert len(result.skipped_ranges) == report.ranges_total > 0
        # The skipped ranges are exactly the planned pairs the table
        # cannot prove empty: a provably empty pair holds no answer, so
        # it is never dispatched and never "skipped".  Re-plan the same
        # query fault-free and compare.
        planned = engine.store.planned_scan_ranges(
            engine.pruner.prune(data[0], 0.02).ranges
        )
        occupied = [
            r for r in planned if engine.store.table.holds_any(r.start, r.stop)
        ]
        assert occupied
        assert result.skipped_ranges == occupied
        assert not result.answers

    def test_batch_reports_each_querys_own_skipped_ranges(self):
        """A shared scan does not lend a query the skipped ranges of the
        rest of the batch: each result lists its own occupied pairs."""
        engine, data = build_engine(
            degraded_mode=True, retry_max_attempts=2
        )
        queries = data[:4]
        engine.install_fault_injector(self._persistent_failure_injector())
        try:
            results = engine.threshold_search_many(queries, 0.02)
        finally:
            engine.install_fault_injector(None)
        for query, result in zip(queries, results):
            planned = engine.store.planned_scan_ranges(
                engine.pruner.prune(query, 0.02).ranges
            )
            occupied = [
                r
                for r in planned
                if engine.store.table.holds_any(r.start, r.stop)
            ]
            assert occupied
            assert result.skipped_ranges == occupied
            assert result.resilience.ranges_total == len(occupied)
            assert result.resilience.ranges_completed == 0
            assert result.completeness == 0.0
            assert not result.answers

    def test_topk_degrades_with_accounting(self):
        engine, data = build_engine(
            degraded_mode=True, retry_max_attempts=2
        )
        engine.install_fault_injector(self._persistent_failure_injector())
        try:
            result = engine.topk_search(data[0], 5)
        finally:
            engine.install_fault_injector(None)
        assert result.completeness < 1.0
        assert result.skipped_ranges
        assert result.resilience.ranges_total == len(result.skipped_ranges)

    def test_degraded_answers_are_subset_of_true_answers(self):
        engine, data = build_engine(
            degraded_mode=True, retry_max_attempts=2
        )
        baseline = set(engine.threshold_search(data[1], 0.02).answers)
        engine.install_fault_injector(
            FaultInjector(
                FaultSchedule(
                    seed=29,
                    region_unavailable_prob=0.6,
                    max_consecutive_failures=10_000_000,
                )
            )
        )
        try:
            degraded = engine.threshold_search(data[1], 0.02)
        finally:
            engine.install_fault_injector(None)
        assert set(degraded.answers) <= baseline
        if degraded.skipped_ranges:
            assert degraded.completeness < 1.0


class TestDeterminism:
    def test_same_seed_same_faults_same_answers(self):
        runs = []
        for _ in range(2):
            engine, data = build_engine(retry_max_attempts=6)
            injector = FaultInjector(
                FaultSchedule(
                    seed=43,
                    region_unavailable_prob=0.3,
                    max_consecutive_failures=2,
                    slow_region_prob=0.2,
                )
            )
            engine.install_fault_injector(injector)
            answers = run_queries(engine, data)
            summary = injector.summary()
            metrics = engine.store.table.metrics.snapshot()
            runs.append((answers, summary, metrics))
        assert runs[0] == runs[1]

    def test_different_seed_different_schedule(self):
        summaries = []
        for seed in (1, 2):
            engine, data = build_engine(retry_max_attempts=6)
            injector = FaultInjector(
                FaultSchedule(
                    seed=seed,
                    region_unavailable_prob=0.3,
                    max_consecutive_failures=2,
                )
            )
            engine.install_fault_injector(injector)
            run_queries(engine, data, n_queries=3)
            summaries.append(injector.summary()["region_outages"])
        assert summaries[0] != summaries[1]


class TestDeadlineBudget:
    def test_virtual_stragglers_trip_the_deadline(self):
        engine, data = build_engine(
            degraded_mode=True,
            scan_deadline_seconds=0.2,
            retry_max_attempts=2,
        )
        engine.install_fault_injector(
            FaultInjector(
                FaultSchedule(
                    seed=8, slow_region_prob=1.0, slow_region_seconds=0.5
                )
            )
        )
        try:
            result = engine.threshold_search(data[0], 0.02)
        finally:
            engine.install_fault_injector(None)
        report = result.resilience
        assert report is not None
        assert report.deadline_exceeded
        assert result.completeness < 1.0
