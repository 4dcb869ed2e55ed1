"""Unit tests for the resilient executor: retry policy, circuit
breaker, deadline budget, degraded mode, and the pass-through guarantee
(fault-free execution is byte-identical to a plain scan)."""

import random

import pytest

from repro.core.executor import (
    CircuitBreaker,
    ResilientExecutor,
    RetryPolicy,
    ScanReport,
)
from repro.exceptions import (
    RegionUnavailableError,
    ScanTimeoutError,
    TransientError,
)
from repro.kvstore.faults import FaultInjector, FaultSchedule
from repro.kvstore.table import KVTable, ScanRange


def make_table(n=60, max_region_rows=20):
    table = KVTable(max_region_rows=max_region_rows)
    for i in range(n):
        table.put(f"k{i:04d}".encode(), f"v{i}".encode())
    return table


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_multiplier=2.0, backoff_max=0.5,
            jitter=0.0,
        )
        rng = random.Random(0)
        assert policy.delay(0, rng) == pytest.approx(0.1)
        assert policy.delay(1, rng) == pytest.approx(0.2)
        assert policy.delay(2, rng) == pytest.approx(0.4)
        assert policy.delay(3, rng) == pytest.approx(0.5)  # capped
        assert policy.delay(10, rng) == pytest.approx(0.5)

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_max=10.0, jitter=0.25)
        a = [policy.delay(0, random.Random(7)) for _ in range(3)]
        b = [policy.delay(0, random.Random(7)) for _ in range(3)]
        assert a == b  # same seed, same jitter
        for d in a:
            assert 1.0 <= d <= 1.25


class TestCircuitBreaker:
    def test_opens_after_threshold_and_half_opens(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_seconds=10.0)
        span = (b"a", b"b")
        assert not breaker.record_failure(span, now=0.0)
        assert not breaker.record_failure(span, now=1.0)
        assert breaker.record_failure(span, now=2.0)  # open transition
        assert breaker.trips == 1
        assert breaker.is_open(span, now=5.0)
        # Cooldown over: half-open, one probe allowed...
        assert not breaker.is_open(span, now=13.0)
        # ...and a single failure re-opens immediately.
        assert breaker.record_failure(span, now=13.0)
        assert breaker.is_open(span, now=14.0)

    def test_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_seconds=10.0)
        span = (None, b"m")
        breaker.record_failure(span, now=0.0)
        breaker.record_failure(span, now=0.0)
        assert breaker.is_open(span, now=1.0)
        breaker.record_success(span)
        assert not breaker.is_open(span, now=1.0)
        assert not breaker.any_open


class TestPassThrough:
    """Without an injector the executor must be invisible."""

    def test_rows_and_metrics_identical_to_plain_scan(self):
        table = make_table()
        ranges = [
            ScanRange(b"k0000", b"k0015"),
            ScanRange(b"k0030", b"k0055"),
            ScanRange(b"k0050", None),
        ]
        table.metrics.reset()
        plain = table.scan_ranges(ranges)
        plain_delta = table.metrics.snapshot()

        table.metrics.reset()
        executor = ResilientExecutor(table)
        rows, report = executor.scan_ranges(ranges)
        resilient_delta = table.metrics.snapshot()

        assert rows == plain
        assert resilient_delta == plain_delta
        assert report.ranges_total == 3
        assert report.ranges_completed == 3
        assert report.completeness == 1.0
        assert report.retries == 0
        assert not report.degraded

    def test_empty_ranges(self):
        executor = ResilientExecutor(make_table())
        rows, report = executor.scan_ranges([])
        assert rows == []
        assert report.completeness == 1.0


class TestRetryMasking:
    def test_transient_outages_fully_masked(self):
        # Single region: the injector caps consecutive failures per
        # region span, so a retry budget larger than the cap is a hard
        # guarantee of masking.
        table = make_table(n=60, max_region_rows=500)
        assert table.num_regions == 1
        schedule = FaultSchedule(
            seed=1, region_unavailable_prob=0.5, max_consecutive_failures=2
        )
        expected = table.scan_ranges([ScanRange(None, None)])
        table.fault_injector = FaultInjector(schedule)
        executor = ResilientExecutor(
            table, RetryPolicy(max_attempts=4, jitter=0.0)
        )
        rows, report = executor.scan_ranges([ScanRange(None, None)])
        assert rows == expected
        assert report.retries > 0
        assert report.faults_encountered > 0
        assert report.completeness == 1.0
        assert table.metrics.retries == report.retries
        assert table.metrics.faults_injected == report.faults_encountered

    def test_retry_discards_partial_rows(self):
        """A fault after some regions already streamed must not leave
        duplicates in the materialised result."""
        table = make_table(n=60, max_region_rows=10)  # several regions
        assert table.num_regions > 3
        expected = table.scan_ranges([ScanRange(None, None)])
        table.fault_injector = FaultInjector(
            FaultSchedule(
                seed=11,
                region_unavailable_prob=0.3,
                max_consecutive_failures=1,
            )
        )
        executor = ResilientExecutor(table, RetryPolicy(max_attempts=12))
        rows, report = executor.scan_ranges([ScanRange(None, None)])
        assert rows == expected  # exactly once, in order
        assert report.faults_encountered > 0

    def test_exhausted_retries_raise_without_degraded_mode(self):
        table = make_table()
        table.fault_injector = FaultInjector(
            FaultSchedule(
                seed=1,
                region_unavailable_prob=1.0,
                max_consecutive_failures=10_000,
            )
        )
        executor = ResilientExecutor(table, RetryPolicy(max_attempts=3))
        with pytest.raises(RegionUnavailableError):
            executor.scan_ranges([ScanRange(None, None)])


class TestDegradedMode:
    def _always_failing_table(self):
        table = make_table()
        table.fault_injector = FaultInjector(
            FaultSchedule(
                seed=2,
                region_unavailable_prob=1.0,
                max_consecutive_failures=10_000,
            )
        )
        return table

    def test_skipped_ranges_reported_exactly(self):
        table = self._always_failing_table()
        ranges = [ScanRange(b"k0000", b"k0010"), ScanRange(b"k0020", b"k0030")]
        executor = ResilientExecutor(
            table, RetryPolicy(max_attempts=2), degraded_mode=True,
        )
        rows, report = executor.scan_ranges(ranges)
        assert rows == []
        assert report.skipped_ranges == ranges
        assert report.completeness == 0.0
        assert table.metrics.ranges_skipped == 2

    def test_partial_completeness(self):
        table = make_table(n=60, max_region_rows=10)
        # Fail only sometimes: some ranges survive, some are skipped.
        table.fault_injector = FaultInjector(
            FaultSchedule(
                seed=3,
                region_unavailable_prob=0.7,
                max_consecutive_failures=10_000,
            )
        )
        executor = ResilientExecutor(
            table, RetryPolicy(max_attempts=2), degraded_mode=True,
        )
        ranges = [
            ScanRange(f"k{i:04d}".encode(), f"k{i + 10:04d}".encode())
            for i in range(0, 60, 10)
        ]
        rows, report = executor.scan_ranges(ranges)
        assert 0.0 < report.completeness < 1.0
        assert report.skipped_ranges
        # Every returned row is outside every skipped range.
        for key, _ in rows:
            for skipped in report.skipped_ranges:
                assert not (
                    (skipped.start is None or key >= skipped.start)
                    and (skipped.stop is None or key < skipped.stop)
                )


class TestDeadline:
    def test_injected_latency_trips_deadline(self):
        table = make_table(n=60, max_region_rows=10)
        table.fault_injector = FaultInjector(
            FaultSchedule(
                seed=4, slow_region_prob=1.0, slow_region_seconds=5.0
            )
        )
        executor = ResilientExecutor(table, deadline_seconds=8.0)
        ranges = [
            ScanRange(f"k{i:04d}".encode(), f"k{i + 10:04d}".encode())
            for i in range(0, 60, 10)
        ]
        with pytest.raises(ScanTimeoutError):
            executor.scan_ranges(ranges)

    def test_deadline_degrades_instead_of_raising(self):
        table = make_table(n=60, max_region_rows=10)
        table.fault_injector = FaultInjector(
            FaultSchedule(
                seed=4, slow_region_prob=1.0, slow_region_seconds=5.0
            )
        )
        executor = ResilientExecutor(
            table, deadline_seconds=8.0, degraded_mode=True
        )
        ranges = [
            ScanRange(f"k{i:04d}".encode(), f"k{i + 10:04d}".encode())
            for i in range(0, 60, 10)
        ]
        rows, report = executor.scan_ranges(ranges)
        assert report.deadline_exceeded
        assert report.skipped_ranges
        assert report.completeness < 1.0

    def test_no_deadline_no_timeout(self):
        table = make_table()
        executor = ResilientExecutor(table)
        assert executor.deadline_from_now() is None


class TestBreakerIntegration:
    def test_breaker_short_circuits_after_persistent_failures(self):
        table = make_table()  # single region
        table.fault_injector = FaultInjector(
            FaultSchedule(
                seed=6,
                region_unavailable_prob=1.0,
                max_consecutive_failures=10_000,
            )
        )
        executor = ResilientExecutor(
            table,
            RetryPolicy(max_attempts=2, jitter=0.0),
            degraded_mode=True,
            breaker=CircuitBreaker(failure_threshold=3, cooldown_seconds=1e9),
        )
        ranges = [ScanRange(None, None)] * 6
        rows, report = executor.scan_ranges(ranges)
        assert rows == []
        assert table.metrics.breaker_trips == 1
        assert report.breaker_short_circuits > 0
        # Short-circuited ranges burned no scan attempts: the injector
        # stopped being consulted once the breaker opened.
        assert report.faults_encountered < 2 * len(ranges)

    def test_open_breaker_raises_fast_without_degraded_mode(self):
        table = make_table()
        table.fault_injector = FaultInjector(
            FaultSchedule(
                seed=6,
                region_unavailable_prob=1.0,
                max_consecutive_failures=10_000,
            )
        )
        executor = ResilientExecutor(
            table,
            RetryPolicy(max_attempts=4, jitter=0.0),
            breaker=CircuitBreaker(failure_threshold=2, cooldown_seconds=1e9),
        )
        with pytest.raises(RegionUnavailableError):
            executor.scan_ranges([ScanRange(None, None)])
        # Breaker is now open; the next call fails without consuming
        # any retry budget.
        faults_before = table.metrics.faults_injected
        with pytest.raises(RegionUnavailableError):
            executor.scan_ranges([ScanRange(None, None)])
        assert table.metrics.faults_injected == faults_before
