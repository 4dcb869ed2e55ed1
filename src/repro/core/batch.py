"""Multi-query batch execution with scan sharing.

A batch of threshold queries is planned up front; the per-query key
ranges are then coalesced into one deduplicated scan plan — byte ranges
that overlap or touch are merged, so a row-key region requested by
several queries is scanned exactly once.  Each scanned row is then
demultiplexed to the queries whose plan covers its key, filtered with
that query's own :class:`~repro.core.local_filter.LocalFilter`, and
refined with the exact measure.

Because merging never bridges gaps between ranges, the merged plan
covers exactly the union of the per-query plans: a batch scans at most
— and, whenever plans overlap, strictly fewer than — the total rows the
same queries would scan one at a time.  Per-query answers are a pure
function of ``(query, row, eps)``, so they are bit-identical to
sequential execution; sharing changes only the I/O, which is what
``IOMetrics.batch_ranges_merged`` / ``batch_rows_shared`` account.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.executor import ScanReport
from repro.core.local_filter import LocalFilter
from repro.core.pruning import check_threshold
from repro.core.threshold import ThresholdSearchResult, threshold_search
from repro.exceptions import QueryError
from repro.geometry.trajectory import Trajectory
from repro.kvstore.table import ScanRange
from repro.measures.base import Measure
from repro.obs.tracing import NULL_TRACER


class _QueryState:
    """Everything one query of the batch carries through the shared scan."""

    __slots__ = (
        "qid",
        "query",
        "eps",
        "pruning",
        "pruning_seconds",
        "local",
        "answers",
        "candidates",
        "delivered_rows",
        "refine_seconds",
    )

    def __init__(self, qid, query, eps, pruning, pruning_seconds, local):
        self.qid = qid
        self.query = query
        self.eps = eps
        self.pruning = pruning
        self.pruning_seconds = pruning_seconds
        self.local = local
        self.answers: Dict[str, float] = {}
        self.candidates = 0
        self.delivered_rows = 0
        self.refine_seconds = 0.0


def _merge_intervals(
    intervals: List[Tuple[bytes, bytes, int]],
) -> List[Tuple[bytes, bytes, List[Tuple[bytes, bytes, int]]]]:
    """Coalesce ``(start, stop, qid)`` byte ranges that overlap or touch.

    Returns ``(start, stop, members)`` per merged range, members being
    the original intervals it absorbed.  Touching counts as mergeable
    (``[a, b) + [b, c) -> [a, c)``) — it adds no extra rows — but gaps
    are never bridged, so the merged plan covers exactly the union of
    the inputs.
    """
    ordered = sorted(intervals, key=lambda iv: (iv[0], iv[1]))
    merged: List[List] = []
    for start, stop, qid in ordered:
        if merged and start <= merged[-1][1]:
            entry = merged[-1]
            if stop > entry[1]:
                entry[1] = stop
            entry[2].append((start, stop, qid))
        else:
            merged.append([start, stop, [(start, stop, qid)]])
    return [(start, stop, members) for start, stop, members in merged]


def _segment_subscribers(
    start: bytes, stop: bytes, members: List[Tuple[bytes, bytes, int]]
) -> List[Tuple[bytes, List[int]]]:
    """Piecewise-constant subscriber lists over one merged range.

    The member intervals tile ``[start, stop)`` (that is what merging
    guarantees); cutting at every member boundary yields segments whose
    subscribing-query set is constant, so the row demux below is a
    single forward walk instead of a per-row membership test.  Returns
    ``(segment_end, qids)`` pairs in key order.
    """
    bounds = sorted({stop} | {m[0] for m in members} | {m[1] for m in members})
    bounds = [b for b in bounds if start < b <= stop]
    segments: List[Tuple[bytes, List[int]]] = []
    seg_start = start
    for seg_end in bounds:
        qids = sorted(
            {q for (s, e, q) in members if s <= seg_start and e >= seg_end}
        )
        segments.append((seg_end, qids))
        seg_start = seg_end
    return segments


def normalise_thresholds(
    queries: Iterable[Trajectory], eps
) -> Tuple[List[Trajectory], List[float]]:
    """``(queries, eps_list)`` as aligned lists, validated.

    ``eps`` is one threshold for the whole batch or any iterable
    aligned with ``queries``; every batch front door (engine, serving
    coordinator) normalises through here, so they cannot disagree on
    what a bad argument is.
    """
    queries = list(queries)
    try:
        eps_list = [float(e) for e in eps]
    except TypeError:
        eps_list = [float(eps)] * len(queries)
    if len(eps_list) != len(queries):
        raise QueryError(
            f"got {len(queries)} queries but {len(eps_list)} thresholds"
        )
    for e in eps_list:
        check_threshold(e)
    return queries, eps_list


def threshold_search_many(
    store,
    pruner,
    measure: Measure,
    queries: Sequence[Trajectory],
    eps_list: Sequence[float],
    tracer=None,
) -> List[ThresholdSearchResult]:
    """Answer a batch of threshold queries over one shared scan
    (``queries`` / ``eps_list`` as :func:`normalise_thresholds` returns
    them: aligned and validated).

    Results are positionally aligned with ``queries`` and bit-identical
    to running :func:`~repro.core.threshold.threshold_search` per query;
    each result's ``retrieved_rows`` counts the rows inside *that
    query's* plan (what it would have scanned alone), while the shared
    :class:`ScanReport` — attached to every result — accounts the
    deduplicated scan that actually ran.
    """
    if tracer is None:
        tracer = NULL_TRACER
    if not queries:
        return []

    metrics = store.metrics

    # ------------------------------------------------------------------
    # Plan every query, collect its per-shard byte ranges.
    # ------------------------------------------------------------------
    states: List[_QueryState] = []
    intervals: List[Tuple[bytes, bytes, int]] = []
    planned_ranges = 0
    with tracer.span("batch.plan", queries=len(queries)) as plan_span:
        for qid, (query, eps) in enumerate(zip(queries, eps_list)):
            started = time.perf_counter()
            pruning = pruner.prune(query, eps, tracer)
            scan_ranges = store.scan_ranges_for(pruning.ranges)
            pruning_seconds = time.perf_counter() - started
            local = LocalFilter(
                query,
                measure,
                eps,
                store.config.dp_tolerance,
                box_mode=store.config.box_mode,
            )
            states.append(
                _QueryState(qid, query, eps, pruning, pruning_seconds, local)
            )
            planned_ranges += len(scan_ranges)
            for scan_range in scan_ranges:
                if scan_range.start is None or scan_range.stop is None:
                    # Unbounded ranges do not merge soundly; run the
                    # whole batch sequentially instead (never the case
                    # for the shipped key encodings, purely defensive).
                    return [
                        threshold_search(
                            store, pruner, measure, q, e, tracer
                        )
                        for q, e in zip(queries, eps_list)
                    ]
                intervals.append((scan_range.start, scan_range.stop, qid))

        merged = _merge_intervals(intervals)
        metrics.batch_ranges_merged += planned_ranges - len(merged)
        plan_span.set_attrs(
            ranges_planned=planned_ranges, ranges_merged_plan=len(merged)
        )

    merged_starts = [start for start, _, _ in merged]
    segments_by_range = [
        _segment_subscribers(start, stop, members)
        for start, stop, members in merged
    ]

    # ------------------------------------------------------------------
    # Scan once, demultiplex each chunk to its subscribing queries.
    # ------------------------------------------------------------------
    def demux(chunk, _used_filter) -> None:
        # One callback per completed merged range (retries re-scan the
        # range before the callback fires, so delivery happens exactly
        # once per surviving range).
        range_idx = bisect_right(merged_starts, chunk[0][0]) - 1
        segments = segments_by_range[range_idx]
        per_query: Dict[int, List[Tuple[bytes, bytes]]] = {}
        deliveries = 0
        seg_idx = 0
        for key, value in chunk:
            while key >= segments[seg_idx][0]:
                seg_idx += 1
            for qid in segments[seg_idx][1]:
                per_query.setdefault(qid, []).append((key, value))
                deliveries += 1
        survivors_total = 0
        for qid, qrows in per_query.items():
            state = states[qid]
            state.delivered_rows += len(qrows)
            refine_started = time.perf_counter()
            kept = []
            for key, value in qrows:
                record = store.record_decoder(key, value)
                if state.local.passes(record):
                    kept.append(record)
            survivors_total += len(kept)
            state.candidates += len(kept)
            query_points = state.query.points
            for record in kept:
                dist = measure.distance_within(
                    query_points, record.points, state.eps
                )
                if dist is not None:
                    state.answers[record.tid] = dist
            state.refine_seconds += time.perf_counter() - refine_started
        # Restore the counters the shared scan could not maintain: the
        # scan ran unfiltered (every row counted as returned), but each
        # *delivery* is one local-filter evaluation and only survivors
        # count as returned rows — exactly the aggregate a filtered
        # per-query execution would have recorded.
        metrics.batch_rows_shared += deliveries - len(chunk)
        metrics.filter_evaluations += deliveries
        metrics.filter_rejections += deliveries - survivors_total
        metrics.rows_returned += survivors_total - len(chunk)

    scan_report = ScanReport()
    scan_plan = [ScanRange(start, stop) for start, stop, _ in merged]
    before = metrics.snapshot()
    scan_started = time.perf_counter()
    with tracer.span("batch.scan", ranges=len(scan_plan)) as scan_span:
        store.executor.scan_ranges(
            scan_plan, None, report=scan_report, on_range_rows=demux
        )
    wall = time.perf_counter() - scan_started
    rows_scanned = metrics.diff(before)["rows_scanned"]
    scan_span.set_attrs(
        rows_scanned=rows_scanned,
        rows_shared=metrics.diff(before)["batch_rows_shared"],
    )

    # The per-query refine work ran inside the shared scan wall time;
    # apportion what is left of the wall clock evenly as scan time so
    # batch totals still roughly sum to the elapsed wall clock.
    total_refine = sum(s.refine_seconds for s in states)
    scan_share = max(wall - total_refine, 0.0) / len(states)

    return [
        ThresholdSearchResult(
            answers=state.answers,
            candidates=state.candidates,
            retrieved_rows=state.delivered_rows,
            pruning=state.pruning,
            pruning_seconds=state.pruning_seconds,
            scan_seconds=scan_share,
            refine_seconds=state.refine_seconds,
            resilience=scan_report,
            filter_stats=state.local.stats,
        )
        for state in states
    ]
