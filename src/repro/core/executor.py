"""Resilient multi-range scan execution.

Every range scan the query engine issues — threshold search, top-k
materialisation, spatial range queries — goes through a
:class:`ResilientExecutor` instead of hitting the table directly.  On a
healthy store the executor is a transparent pass-through (identical
rows, identical I/O counters); under faults it supplies the operational
behaviour a distributed deployment needs:

* **retry with exponential backoff + jitter** for
  :class:`~repro.exceptions.TransientError`\\ s — backoff time is
  *virtual* (charged against the deadline budget, never slept), so
  chaos suites run at full speed while timeout semantics stay real;
* a per-region **circuit breaker**: a region that keeps failing is
  short-circuited for a cooldown instead of burning the retry budget of
  every subsequent range that touches it;
* a per-query **deadline budget** (:class:`ScanTimeoutError` when
  exhausted);
* **degraded mode**: instead of failing the query, exhausted ranges are
  recorded on a :class:`ScanReport` — exactly which key ranges were
  skipped and what fraction completed — so callers can return partial
  results with honest completeness accounting.

The report rides on the search result objects; benchmarks can therefore
plot answer completeness as a function of injected fault rates.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import (
    RegionUnavailableError,
    ScanTimeoutError,
    TransientError,
)
from repro.kvstore.table import KVTable, ScanRange
from repro.obs.heatmap import _key_label, _stop_label
from repro.obs.tracing import NULL_TRACER

RegionSpan = Tuple[Optional[bytes], Optional[bytes]]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with proportional jitter."""

    max_attempts: int = 4
    backoff_base: float = 0.01
    backoff_multiplier: float = 2.0
    backoff_max: float = 1.0
    jitter: float = 0.25

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(
            self.backoff_base * self.backoff_multiplier**attempt,
            self.backoff_max,
        )
        if self.jitter > 0.0:
            raw *= 1.0 + self.jitter * rng.random()
        return raw


class CircuitBreaker:
    """Per-region failure tracking with open/half-open semantics.

    ``failure_threshold`` consecutive failures of one region open its
    circuit: further scans touching it fail fast (no retries) until
    ``cooldown_seconds`` of executor time pass, after which exactly
    **one** probe is allowed through (half-open); success closes the
    circuit, failure re-opens it immediately.

    The class is safe under concurrent callers (the serving coordinator
    shares one breaker across its threads):
    all state transitions happen under a lock, and the half-open window
    admits a single probe no matter how many threads race the cooldown
    expiry — the others keep seeing the circuit as open until the probe
    resolves.  A probe whose caller never reports back (e.g. the range
    was skipped) stops blocking after a further ``cooldown_seconds``,
    when the next caller is admitted as a fresh probe.
    """

    def __init__(
        self, failure_threshold: int = 5, cooldown_seconds: float = 30.0
    ):
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._lock = threading.Lock()
        self._consecutive: Dict[RegionSpan, int] = {}
        self._open_until: Dict[RegionSpan, float] = {}
        #: span -> admission time of the in-flight half-open probe
        self._probe_started: Dict[RegionSpan, float] = {}
        #: total open transitions
        self.trips = 0
        #: total half-open probes admitted
        self.probes_admitted = 0

    def snapshot(self) -> Dict[str, object]:
        """Current breaker state for operational reporting (the
        ``repro chaos`` / ``repro stats`` CLIs and the metrics
        registry's ``trass.resilience.breaker.*`` gauges)."""
        with self._lock:
            return {
                "open_regions": len(self._open_until),
                "tracked_regions": len(self._consecutive),
                "trips": self.trips,
                "probes_admitted": self.probes_admitted,
                "any_open": bool(self._open_until),
            }

    def is_open(self, span: RegionSpan, now: float) -> bool:
        """Whether ``span``'s circuit rejects a scan starting ``now``.

        A ``False`` return on a span whose cooldown just expired *is*
        the probe admission: the caller is expected to run the scan and
        report back via :meth:`record_success` / :meth:`record_failure`.
        Concurrent callers in the same half-open window keep getting
        ``True``.
        """
        with self._lock:
            until = self._open_until.get(span)
            if until is None:
                probe = self._probe_started.get(span)
                if probe is None:
                    return False
                if now - probe >= self.cooldown_seconds:
                    # The previous probe never resolved; admit another.
                    self._probe_started[span] = now
                    self.probes_admitted += 1
                    return False
                return True  # probe in flight: everyone else waits
            if now >= until:
                # Cooldown over: half-open — admit exactly this caller
                # as the probe; one strike re-opens immediately.
                del self._open_until[span]
                self._consecutive[span] = self.failure_threshold - 1
                self._probe_started[span] = now
                self.probes_admitted += 1
                return False
            return True

    def record_failure(self, span: RegionSpan, now: float) -> bool:
        """Count a failure; returns True on a closed->open transition."""
        with self._lock:
            self._probe_started.pop(span, None)
            count = self._consecutive.get(span, 0) + 1
            self._consecutive[span] = count
            if (
                count >= self.failure_threshold
                and span not in self._open_until
            ):
                self._open_until[span] = now + self.cooldown_seconds
                self.trips += 1
                return True
            return False

    def record_success(self, span: RegionSpan) -> None:
        with self._lock:
            self._probe_started.pop(span, None)
            self._consecutive[span] = 0
            self._open_until.pop(span, None)

    def clear_probe(self, span: RegionSpan) -> None:
        """Resolve an in-flight probe of ``span`` as a success.

        Narrower than :meth:`record_success`: touches nothing unless a
        probe is actually pending, so spans that merely share a scan
        range with the probed region keep their failure history.
        """
        with self._lock:
            if self._probe_started.pop(span, None) is not None:
                self._consecutive[span] = 0

    @property
    def any_probing(self) -> bool:
        with self._lock:
            return bool(self._probe_started)

    def reset(self) -> None:
        """Forget all failure history (open circuits included)."""
        with self._lock:
            self._consecutive.clear()
            self._open_until.clear()
            self._probe_started.clear()

    @property
    def any_open(self) -> bool:
        with self._lock:
            return bool(self._open_until) or bool(self._probe_started)


@dataclass
class ScanReport:
    """Completeness accounting for one resilient scan (or query).

    ``completeness`` is the fraction of planned key ranges that were
    fully scanned; ``skipped_ranges`` lists exactly the ranges whose
    rows may be missing from the answer — the contract of degraded
    mode.
    """

    ranges_total: int = 0
    ranges_completed: int = 0
    skipped_ranges: List[ScanRange] = field(default_factory=list)
    #: retry attempts performed (transient failures that were re-tried)
    retries: int = 0
    #: transient faults observed (including ones retries then masked)
    faults_encountered: int = 0
    #: ranges rejected outright by an open circuit breaker
    breaker_short_circuits: int = 0
    #: virtual seconds spent backing off
    backoff_seconds: float = 0.0
    deadline_exceeded: bool = False

    @property
    def completeness(self) -> float:
        if self.ranges_total == 0:
            return 1.0
        return self.ranges_completed / self.ranges_total

    @property
    def degraded(self) -> bool:
        return bool(self.skipped_ranges)

    def merge_from(self, other: "ScanReport") -> None:
        """Fold a partition's sub-report into this one (plan order).

        The serving coordinator accounts each partition's ranges on the
        worker's own report and merges them back deterministically, so
        a merged report is field-for-field identical to the one a
        single-process pass over the same ranges would have produced.
        """
        self.ranges_total += other.ranges_total
        self.ranges_completed += other.ranges_completed
        self.skipped_ranges.extend(other.skipped_ranges)
        self.retries += other.retries
        self.faults_encountered += other.faults_encountered
        self.breaker_short_circuits += other.breaker_short_circuits
        self.backoff_seconds += other.backoff_seconds
        self.deadline_exceeded = self.deadline_exceeded or other.deadline_exceeded

    def summary(self) -> Dict[str, object]:
        return {
            "ranges_total": self.ranges_total,
            "ranges_completed": self.ranges_completed,
            "ranges_skipped": len(self.skipped_ranges),
            "completeness": self.completeness,
            "retries": self.retries,
            "faults_encountered": self.faults_encountered,
            "breaker_short_circuits": self.breaker_short_circuits,
            "backoff_seconds": self.backoff_seconds,
            "deadline_exceeded": self.deadline_exceeded,
        }


class ResilientExecutor:
    """Runs multi-range scans with retry, breaker, deadline, degraded
    mode.  One per :class:`~repro.core.storage.TrajectoryStore`."""

    def __init__(
        self,
        table: KVTable,
        policy: Optional[RetryPolicy] = None,
        *,
        deadline_seconds: Optional[float] = None,
        degraded_mode: bool = False,
        breaker: Optional[CircuitBreaker] = None,
        seed: int = 0,
    ):
        self.table = table
        self.policy = policy if policy is not None else RetryPolicy()
        self.deadline_seconds = deadline_seconds
        self.degraded_mode = degraded_mode
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._rng = random.Random(seed)
        #: virtual seconds of backoff charged against deadlines
        self.virtual_backoff_seconds = 0.0
        #: span tracer; the engine swaps in a real one when tracing is
        #: enabled (NULL_TRACER costs one attribute load per range)
        self.tracer = NULL_TRACER

    def reset(self) -> None:
        """Start a fresh fault epoch: clear breaker state and the
        virtual backoff account.

        Called when a fault injector is installed or detached — an open
        circuit earned under one schedule must not short-circuit scans
        of the next (or of the fault-free table)."""
        self.breaker.reset()
        self.virtual_backoff_seconds = 0.0

    @classmethod
    def from_config(cls, table: KVTable, config) -> "ResilientExecutor":
        """Build from the resilience knobs on a ``TraSSConfig``."""
        return cls(
            table,
            RetryPolicy(max_attempts=config.retry_max_attempts),
            deadline_seconds=config.scan_deadline_seconds,
            degraded_mode=config.degraded_mode,
        )

    # ------------------------------------------------------------------
    # Clock: wall time plus every virtual charge (injected straggler
    # latency, backoff waits), so deadlines fire in tests without a
    # single real sleep.
    # ------------------------------------------------------------------
    def _now(self) -> float:
        injector = getattr(self.table, "fault_injector", None)
        virtual = injector.virtual_seconds if injector is not None else 0.0
        return time.monotonic() + self.virtual_backoff_seconds + virtual

    def deadline_from_now(self) -> Optional[float]:
        """The absolute deadline a query starting now must meet."""
        if self.deadline_seconds is None:
            return None
        return self._now() + self.deadline_seconds

    def trace_clock(self) -> float:
        """The clock span tracers should read.

        Under fault injection the clock is *purely virtual* (injected
        straggler latency plus backoff charges) so span durations of a
        chaos run are a deterministic function of ``(seed, workload)``;
        on a healthy table it is the executor's wall-plus-virtual
        clock.
        """
        injector = getattr(self.table, "fault_injector", None)
        if injector is not None:
            return self.virtual_backoff_seconds + injector.virtual_seconds
        return self._now()

    # ------------------------------------------------------------------
    def execute(
        self,
        ranges: Sequence[ScanRange],
        fn: Callable[[ScanRange], None],
        report: Optional[ScanReport] = None,
        deadline: Optional[float] = None,
    ) -> ScanReport:
        """Run ``fn`` once per range with full fault handling.

        ``fn`` performs the actual scan work (materialising or
        streaming) and may raise
        :class:`~repro.exceptions.TransientError`; the executor retries
        it per range.  ``fn`` must tolerate partial re-execution — the
        query layer guarantees this via per-trajectory deduplication.
        Pass one ``report`` (and one ``deadline``) across several
        ``execute`` calls to account a whole query against a single
        budget.
        """
        if report is None:
            report = ScanReport()
        if deadline is None:
            deadline = self.deadline_from_now()
        for index, scan_range in enumerate(ranges):
            self._execute_one(scan_range, fn, report, deadline, trace_index=index)
        return report

    def _execute_one(
        self,
        scan_range: ScanRange,
        fn: Callable[[ScanRange], None],
        report: ScanReport,
        deadline: Optional[float],
        trace_index: Optional[int] = None,
    ) -> None:
        """One range with the full deadline / breaker / retry pipeline,
        wrapped in a ``scan.range`` span when tracing is on.

        The span carries the range keys, its position in the plan
        (``plan.index``), the executing thread, retry / fault / breaker
        deltas and per-range cache hits.  With the no-op tracer this is
        a single attribute check on top of :meth:`_run_range`.
        """
        tracer = self.tracer
        if not tracer.enabled:
            self._run_range(scan_range, fn, report, deadline)
            return
        before = (
            report.retries,
            report.faults_encountered,
            report.breaker_short_circuits,
            report.ranges_completed,
            len(report.skipped_ranges),
        )
        metrics = self.table.metrics
        cache_before = (metrics.block_cache_hits, metrics.record_cache_hits)
        span = tracer.span(
            "scan.range",
            start=_key_label(scan_range.start),
            stop=_stop_label(scan_range.stop),
        )
        if trace_index is not None:
            span.set_attr("plan.index", trace_index)
        with span:
            span.set_attr("worker", threading.current_thread().name)
            try:
                self._run_range(scan_range, fn, report, deadline)
            finally:
                span.set_attrs(
                    retries=report.retries - before[0],
                    faults=report.faults_encountered - before[1],
                    breaker_rejections=report.breaker_short_circuits
                    - before[2],
                    completed=report.ranges_completed > before[3],
                    skipped=len(report.skipped_ranges) > before[4],
                    block_cache_hits=metrics.block_cache_hits
                    - cache_before[0],
                    record_cache_hits=metrics.record_cache_hits
                    - cache_before[1],
                )

    def _run_range(
        self,
        scan_range: ScanRange,
        fn: Callable[[ScanRange], None],
        report: ScanReport,
        deadline: Optional[float],
    ) -> None:
        """The untraced per-range pipeline."""
        report.ranges_total += 1
        if deadline is not None and self._now() > deadline:
            self._give_up_deadline(scan_range, report)
            return
        if self.breaker.any_open and self._breaker_rejects(scan_range):
            report.breaker_short_circuits += 1
            if not self.degraded_mode:
                raise RegionUnavailableError(
                    f"circuit breaker open for a region of "
                    f"[{scan_range.start!r}, {scan_range.stop!r})"
                )
            self._skip(scan_range, report)
            return
        self._attempt_range(scan_range, fn, report, deadline)

    def scan_ranges(
        self,
        ranges: Sequence[ScanRange],
        row_filter=None,
        report: Optional[ScanReport] = None,
    ) -> Tuple[List[Tuple[bytes, bytes]], ScanReport]:
        """Materialise every range; the resilient ``scan_ranges``.

        Rows of a failed attempt are discarded before the retry, so the
        result holds each surviving row exactly once, in range order,
        even when faults interrupt scans midway.  Threshold search
        refines the rows once this returns
        (:func:`~repro.core.threshold.scan_and_refine`).
        """
        rows: List[Tuple[bytes, bytes]] = []

        def consume(scan_range: ScanRange) -> None:
            rows.extend(self.scan_chunk(scan_range, row_filter))

        report = self.execute(ranges, consume, report)
        return rows, report

    def scan_chunk(
        self, scan_range: ScanRange, row_filter=None
    ) -> List[Tuple[bytes, bytes]]:
        """One range's surviving rows (the filter rides the scan)."""
        return list(
            self.table.scan(scan_range.start, scan_range.stop, row_filter)
        )

    # ------------------------------------------------------------------
    def _range_spans(self, scan_range: ScanRange) -> List[RegionSpan]:
        lo, hi = self.table.overlapping_region_span(
            scan_range.start, scan_range.stop
        )
        return [
            (region.start_key, region.end_key)
            for region in self.table.regions[lo:hi]
        ]

    def _breaker_rejects(self, scan_range: ScanRange) -> bool:
        now = self._now()
        return any(
            self.breaker.is_open(span, now)
            for span in self._range_spans(scan_range)
        )

    def _skip(self, scan_range: ScanRange, report: ScanReport) -> None:
        report.skipped_ranges.append(scan_range)
        self.table.metrics.ranges_skipped += 1

    def _give_up_deadline(
        self, scan_range: ScanRange, report: ScanReport
    ) -> None:
        report.deadline_exceeded = True
        if not self.degraded_mode:
            raise ScanTimeoutError(
                f"scan deadline of {self.deadline_seconds}s exhausted with "
                f"{report.ranges_total - report.ranges_completed} range(s) "
                f"unfinished"
            )
        self._skip(scan_range, report)

    def _attempt_range(
        self,
        scan_range: ScanRange,
        fn: Callable[[ScanRange], None],
        report: ScanReport,
        deadline: Optional[float],
    ) -> None:
        failed_spans: set = set()
        attempt = 0
        while True:
            try:
                fn(scan_range)
            except TransientError as exc:
                report.faults_encountered += 1
                now = self._now()
                span = getattr(exc, "region_span", None)
                breaker_open = False
                if span is not None:
                    failed_spans.add(span)
                    if self.breaker.record_failure(span, now):
                        self.table.metrics.breaker_trips += 1
                    breaker_open = self.breaker.is_open(span, now)
                timed_out = deadline is not None and now > deadline
                if timed_out:
                    self._give_up_deadline(scan_range, report)
                    return
                if attempt + 1 >= self.policy.max_attempts or breaker_open:
                    if self.degraded_mode:
                        self._skip(scan_range, report)
                        return
                    raise
                delay = self.policy.delay(attempt, self._rng)
                self.virtual_backoff_seconds += delay
                report.backoff_seconds += delay
                report.retries += 1
                self.table.metrics.retries += 1
                attempt += 1
            else:
                for span in failed_spans:
                    self.breaker.record_success(span)
                if self.breaker.any_probing:
                    # A probe admitted by the half-open check covers
                    # this range; a clean pass closes its circuit.
                    for span in self._range_spans(scan_range):
                        self.breaker.clear_probe(span)
                report.ranges_completed += 1
                return
