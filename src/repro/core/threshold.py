"""Threshold similarity search (Definition 3, Algorithm 3).

Plan key ranges with global pruning, scan them with local filtering
pushed into the store, and refine the survivors with the exact
(early-abandoning) measure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.executor import ScanReport
from repro.core.local_filter import (
    LocalFilter,
    LocalFilterRowFilter,
    LocalFilterStats,
)
from repro.core.pruning import GlobalPruner, PruningResult, check_threshold
from repro.core.storage import TrajectoryStore
from repro.geometry.trajectory import Trajectory
from repro.index.ranges import IndexRange
from repro.kvstore.table import ScanRange
from repro.measures.base import Measure
from repro.obs.tracing import NULL_TRACER


@dataclass
class ThresholdSearchResult:
    """Answers plus the per-phase accounting the paper's plots use."""

    #: tid -> exact similarity distance, for every answer
    answers: Dict[str, float]
    #: trajectories that survived local filtering (pre-refinement)
    candidates: int
    #: rows the store touched inside the scan ranges
    retrieved_rows: int
    #: the global-pruning plan (``None`` only on a shard worker's
    #: partial result: the coordinator planned, and keeps the plan)
    pruning: Optional[PruningResult]
    pruning_seconds: float
    scan_seconds: float
    refine_seconds: float
    #: retry / degraded-mode accounting for the scan phase (None for
    #: paths that bypass the key-value scan, e.g. full-scan fallbacks)
    resilience: Optional[ScanReport] = None
    #: per-lemma rejection funnel from local filtering (None for
    #: full-scan fallbacks, which bypass Algorithm 2)
    filter_stats: Optional[LocalFilterStats] = None

    @property
    def precision(self) -> float:
        """Answers over candidates (Figure 11(c)); 1.0 when no candidates."""
        if self.candidates == 0:
            return 1.0
        return len(self.answers) / self.candidates

    @property
    def total_seconds(self) -> float:
        return self.pruning_seconds + self.scan_seconds + self.refine_seconds

    @property
    def completeness(self) -> float:
        """Fraction of planned key ranges fully scanned (1.0 = every
        answer is present; < 1.0 only in degraded mode under faults)."""
        if self.resilience is None:
            return 1.0
        return self.resilience.completeness

    @property
    def skipped_ranges(self) -> List[ScanRange]:
        """Exactly the key ranges degraded mode left unscanned."""
        if self.resilience is None:
            return []
        return list(self.resilience.skipped_ranges)


def make_row_filter(
    store: TrajectoryStore, local: LocalFilter
) -> LocalFilterRowFilter:
    """The scan-side adapter for one query's local filter, decoding
    through the store's record cache."""
    return LocalFilterRowFilter(local, decoder=store.record_decoder)


def threshold_search(
    store: TrajectoryStore,
    pruner: GlobalPruner,
    measure: Measure,
    query: Trajectory,
    eps: float,
    tracer=None,
) -> ThresholdSearchResult:
    """Run Algorithm 3 against a trajectory store: plan with global
    pruning, then :func:`scan_and_refine` the planned ranges.

    ``tracer`` (a :class:`~repro.obs.tracing.Tracer`) records the
    prune / scan / refine phase spans.
    """
    check_threshold(eps)
    if tracer is None:
        tracer = NULL_TRACER
    started = time.perf_counter()
    pruning = pruner.prune(query, eps, tracer)
    prune_seconds = time.perf_counter() - started
    result = scan_and_refine(
        store, measure, query, eps, pruning.ranges, tracer
    )
    result.pruning = pruning
    result.pruning_seconds += prune_seconds
    return result


def scan_and_refine(
    store: TrajectoryStore,
    measure: Measure,
    query: Trajectory,
    eps: float,
    ranges: Sequence[IndexRange],
    tracer=NULL_TRACER,
    shards: Optional[Sequence[int]] = None,
) -> ThresholdSearchResult:
    """The region-server half of Algorithm 3: scan the planned
    index-value ``ranges`` with local filtering pushed into the store
    and refine the survivors with the exact measure.

    ``shards`` restricts the scan to a subset of salts — a serving
    shard worker passes the salts it owns, so the union of the workers'
    results is field-for-field the all-shards result.  The plan is the
    caller's: ``pruning`` is left ``None`` and ``pruning_seconds``
    covers only the range -> row-key mapping.
    """
    started = time.perf_counter()
    scan_ranges = store.scan_ranges_for(ranges, shards=shards)
    pruning_seconds = time.perf_counter() - started

    local = LocalFilter(
        query,
        measure,
        eps,
        store.config.dp_tolerance,
        box_mode=store.config.box_mode,
    )
    local.tracer = tracer
    row_filter = make_row_filter(store, local)

    # Refinement is pipelined with the scan: the executor hands over
    # each completed range's surviving rows (serialised, so no locking
    # here) while other ranges are still scanning.  Answers are a
    # per-record pure function of (query, record, eps), so the answer
    # set is identical to refining after the full scan.  The fused
    # ``distance_within`` computes the decision and the exact distance
    # in one early-abandoning pass.
    answers: Dict[str, float] = {}
    refine_clock = [0.0]
    refined_count = [0]
    abandoned_count = [0]
    query_points = query.points

    def refine(chunk, used_filter) -> None:
        refine_started = time.perf_counter()
        accepted = used_filter.accepted
        for key, _ in chunk:
            record = accepted[key]
            dist = measure.distance_within(query_points, record.points, eps)
            refined_count[0] += 1
            if dist is not None:
                answers[record.tid] = dist
            else:
                abandoned_count[0] += 1
        refine_clock[0] += time.perf_counter() - refine_started

    rows_before = store.metrics.rows_scanned
    started = time.perf_counter()
    with tracer.span("scan", ranges=len(scan_ranges)) as scan_span:
        rows, scan_report = store.executor.scan_ranges(
            scan_ranges, row_filter, on_range_rows=refine
        )
    elapsed = time.perf_counter() - started
    retrieved = store.metrics.rows_scanned - rows_before
    # The refine callbacks ran inside the scan wall time; split the
    # accounting so the phase totals still sum to the wall clock.
    refine_seconds = min(refine_clock[0], elapsed)
    scan_seconds = elapsed - refine_seconds

    scan_span.set_attrs(
        rows_retrieved=retrieved,
        candidates=len(rows),
        ranges_completed=scan_report.ranges_completed,
        retries=scan_report.retries,
    )
    # The refine phase has no contiguous interval of its own — it ran
    # interleaved inside the scan — so its span gets the accumulated
    # callback time explicitly.
    with tracer.span("refine") as refine_span:
        refine_span.set_attrs(
            refined=refined_count[0],
            answers=len(answers),
            early_abandoned=abandoned_count[0],
            measure=measure.name,
        )
    refine_span.set_duration(refine_seconds)

    return ThresholdSearchResult(
        answers=answers,
        candidates=len(rows),
        retrieved_rows=retrieved,
        pruning=None,
        pruning_seconds=pruning_seconds,
        scan_seconds=scan_seconds,
        refine_seconds=refine_seconds,
        resilience=scan_report,
        filter_stats=local.stats,
    )
