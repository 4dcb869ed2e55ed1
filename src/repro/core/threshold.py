"""Threshold similarity search (Definition 3, Algorithm 3).

Plan key ranges with global pruning, scan them with local filtering
pushed into the store, and refine the survivors with the exact
(early-abandoning) measure.  A batch plans every query and shares one
scan (:func:`scan_and_refine`); a single query is a batch of one.
Refinement starts once the scan has returned, one
:meth:`~repro.measures.base.Measure.distance_within_many` call per
query over its survivors in scan order, so ``scan`` and ``refine`` are
two contiguous phases.

Lemmas 5 and 12 (:meth:`LocalFilter.head`) are O(1) on the row head;
Lemmas 13-14 (:meth:`LocalFilter.tail`) cost a row about what batched
Fréchet refinement does, and a sound filter never rejects an answer.
With Lemma 12 (Fréchet, DTW) ``tail`` rejects at most a few per cent of
the rows ``head`` passes on every measured store, and on near-duplicate
data nearly every one of those rows is an answer.  So for those
measures only ``head`` runs inside the scan, every head survivor is
refined, and ``tail`` runs only on the rows refinement rejects, to
decide whether each was a candidate: a row it rejects is no candidate,
and its ``IOMetrics`` move from returned to rejected.  Answers,
candidates, filter tallies and every counter are those of all four
lemmas run inside the scan.  Without Lemma 12
(Hausdorff) ``tail`` rejects most head survivors, and all four lemmas
run inside the scan (:meth:`LocalFilter.passes`).

Answers are a pure function of ``(query, row, eps)``, so a batch
answers bit-identically to its queries run one at a time; sharing
changes only the I/O (``IOMetrics.batch_ranges_merged`` /
``batch_rows_shared``).
"""

from __future__ import annotations

import dataclasses
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.executor import ScanReport
from repro.core.local_filter import LocalFilter, LocalFilterStats
from repro.core.pruning import GlobalPruner, PruningResult, check_threshold
from repro.core.storage import TrajectoryRecord, TrajectoryStore
from repro.geometry.trajectory import Trajectory
from repro.index.ranges import IndexRange
from repro.kvstore.filters import RowFilter
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
    #: rows the store touched inside this query's scan ranges
    retrieved_rows: int
    #: the global-pruning plan (``None`` only on a shard worker's
    #: partial result: the coordinator planned, and keeps the plan)
    pruning: Optional[PruningResult]
    pruning_seconds: float
    scan_seconds: float
    refine_seconds: float
    #: retry / degraded-mode accounting for the scan phase
    resilience: Optional[ScanReport] = None
    #: per-lemma rejection funnel from local filtering (None only on a
    #: cluster result no partition answered)
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


def threshold_search(
    store: TrajectoryStore,
    pruner: GlobalPruner,
    measure: Measure,
    query: Trajectory,
    eps: float,
    tracer=None,
) -> ThresholdSearchResult:
    """Run Algorithm 3 for one query, as a batch of one; ``tracer`` (a
    :class:`~repro.obs.tracing.Tracer`) records the phase spans."""
    check_threshold(eps)
    return threshold_search_many(
        store, pruner, measure, [query], [eps], tracer
    )[0]


def threshold_search_many(
    store: TrajectoryStore,
    pruner: GlobalPruner,
    measure: Measure,
    queries: Sequence[Trajectory],
    eps_list: Sequence[float],
    tracer=None,
) -> List[ThresholdSearchResult]:
    """Plan every query with global pruning, then :func:`scan_and_refine`
    them all.  ``queries`` / ``eps_list`` are aligned and validated (as
    :func:`~repro.core.pruning.normalise_thresholds` returns them); so
    are the results."""
    if tracer is None:
        tracer = NULL_TRACER
    plans, prune_seconds = [], []
    for query, eps in zip(queries, eps_list):
        started = time.perf_counter()
        plans.append(pruner.prune(query, eps, tracer))
        prune_seconds.append(time.perf_counter() - started)
    results = scan_and_refine(
        store, measure, queries, eps_list, [p.ranges for p in plans], tracer
    )
    for result, plan, seconds in zip(results, plans, prune_seconds):
        result.pruning = plan
        result.pruning_seconds += seconds
    return results


def _shared_plan(pairs: List[List[ScanRange]]):
    """``(plan, holders, ends, subscribers)`` for every query's key ranges.

    Ranges that overlap or touch merge into ``plan`` (key order); gaps
    are never bridged, so it covers exactly the union of ``pairs``.
    ``plan[holders[q][i]]`` holds ``pairs[q][i]``.  A scanned key ``k``
    lies in segment ``bisect_right(ends, k)``, whose queries are
    ``subscribers[segment]``.  No key between merged ranges is scanned,
    so neighbouring segments with equal subscribers fold into one.
    """
    holders = [[0] * len(own) for own in pairs]
    groups: List[list] = []
    for start, stop, qid, i in sorted(
        (r.start, r.stop, qid, i)
        for qid, own in enumerate(pairs)
        for i, r in enumerate(own)
    ):
        if groups and start <= groups[-1][1]:
            groups[-1][1] = max(groups[-1][1], stop)
            groups[-1][2].append((start, stop, qid))
        else:
            groups.append([start, stop, [(start, stop, qid)], pairs[qid][i]])
        holders[qid][i] = len(groups) - 1
    plan, ends, subscribers = [], [], []
    for start, stop, members, first in groups:
        if len(members) == 1:
            # a range that overlaps or touches no other is its own plan
            plan.append(first)
            segments = [(stop, (members[0][2],))]
        else:
            plan.append(ScanRange(start, stop))
            cuts = sorted({b for s, e, _ in members for b in (s, e)})
            segments = [
                (hi, tuple(sorted({q for s, e, q in members if s <= lo < e})))
                for lo, hi in zip(cuts, cuts[1:])
            ]
        for hi, subs in segments:
            if subscribers and subscribers[-1] == subs:
                ends[-1] = hi
            else:
                ends.append(hi)
                subscribers.append(subs)
    return plan, holders, ends, subscribers


class _SharedRowFilter(RowFilter):
    """Decode each row once and run the local filter ``predicates[q]``
    (:meth:`LocalFilter.head` or ``passes``) of every query ``q``
    subscribing to its key; a row some query passed waits in
    ``accepted``, keyed by its row key, as ``(record, passed qids)``
    for the scan to deliver it.  The table counts one evaluation per
    row; a row with ``n > 1`` subscribers adds the other ``n - 1``
    here, so the counters are the sums of the queries run one at a
    time.  A survivor a retried range replaces moves to ``retried``."""

    def __init__(self, decoder, predicates, ends, subscribers, metrics):
        self.decoder = decoder
        self.predicates = predicates
        self.ends = ends
        self.subscribers = subscribers
        self.metrics = metrics
        self.accepted: Dict[bytes, Tuple[TrajectoryRecord, List[int]]] = {}
        self.retried: List[Tuple[TrajectoryRecord, List[int]]] = []

    def accept(self, key: bytes, value: bytes) -> bool:
        subscribers = self.subscribers[bisect_right(self.ends, key)]
        record = self.decoder(key, value)
        predicates = self.predicates
        passed = [qid for qid in subscribers if predicates[qid](record)]
        extra = len(subscribers) - 1
        if extra:
            shared = max(len(passed) - 1, 0)
            metrics = self.metrics
            metrics.batch_rows_shared += extra
            metrics.filter_evaluations += extra
            metrics.filter_rejections += extra - shared
            metrics.rows_returned += shared
        if passed:
            replaced = self.accepted.get(key)
            if replaced is not None:
                self.retried.append(replaced)
            self.accepted[key] = (record, passed)
            return True
        return False


def _tail_rejects(
    local: LocalFilter, record: TrajectoryRecord, metrics
) -> bool:
    """Run Lemmas 13-14 on a head survivor.  On a rejection, count the
    ``(row, query)`` pair as the filter inside the scan would have:
    rejected, not returned."""
    if local.tail(record):
        return False
    metrics.filter_rejections += 1
    metrics.rows_returned -= 1
    return True


def scan_and_refine(
    store: TrajectoryStore,
    measure: Measure,
    queries: Sequence[Trajectory],
    eps_list: Sequence[float],
    ranges_list: Sequence[Sequence[IndexRange]],
    tracer=NULL_TRACER,
    shards: Optional[Sequence[int]] = None,
) -> List[ThresholdSearchResult]:
    """The region-server half of Algorithm 3, one scan for every query:
    scan the index-value ranges planned for query ``q``
    (``ranges_list[q]``) with local filtering pushed into the store, and
    refine the survivors with the exact measure.

    ``shards`` restricts the scan to a subset of salts — a shard worker
    passes the salts it owns, so the union of the workers' results is
    field-for-field the all-shards result.  The plan is the caller's:
    ``pruning`` is ``None`` and ``pruning_seconds`` covers only the
    range -> row-key mapping.  Each result's ``retrieved_rows`` and
    :class:`ScanReport` ranges are its own (a range completed when the
    merged range holding it did); retries, faults and backoff are the
    shared scan's.
    """
    if not queries:
        return []
    pairs, pruning_seconds = [], []
    for ranges in ranges_list:
        started = time.perf_counter()
        pairs.append(store.scan_ranges_for(ranges, shards=shards))
        pruning_seconds.append(time.perf_counter() - started)
    plan, holders, ends, subscribers = _shared_plan(pairs)
    metrics = store.metrics
    metrics.batch_ranges_merged += sum(map(len, pairs)) - len(plan)

    tolerance = store.config.dp_tolerance
    filters = [
        LocalFilter(q, measure, e, tolerance)
        for q, e in zip(queries, eps_list)
    ]
    for local in filters:
        local.tracer = tracer
    # Lemmas 13-14 wait for refinement where Lemma 12 leaves them
    # little to reject (module docstring).
    deferred = measure.supports_start_end_filter
    row_filter = _SharedRowFilter(
        store.record_decoder,
        [local.head if deferred else local.passes for local in filters],
        ends,
        subscribers,
        metrics,
    )

    rows_before = metrics.rows_scanned
    started = time.perf_counter()
    with tracer.span("scan", ranges=len(plan)) as scan_span:
        delivered, shared_report = store.executor.scan_ranges(plan, row_filter)
        # Each key is delivered once (plan ranges are disjoint and a
        # retried range delivers only its last attempt), in scan order:
        # a query's survivors are its accepted rows in that order.
        accepted = row_filter.accepted
        survivors: List[List[TrajectoryRecord]] = [[] for _ in queries]
        for key, _ in delivered:
            record, qids = accepted.pop(key)
            for qid in qids:
                survivors[qid].append(record)
        # Head survivors no delivered row carries (a failed attempt's,
        # or a skipped range's) go through deferred Lemmas 13-14 here,
        # as inside the scan.
        if deferred:
            for record, qids in row_filter.retried + list(accepted.values()):
                for qid in qids:
                    _tail_rejects(filters[qid], record, metrics)
        scan_span.set_attrs(
            rows_retrieved=metrics.rows_scanned - rows_before,
            ranges_completed=shared_report.ranges_completed,
            retries=shared_report.retries,
        )
    scan_seconds = time.perf_counter() - started

    # Refinement, once the scan is done: each query's survivors in one
    # call of the fused, early-abandoning kernel, which decides and
    # measures in one pass.  With Lemmas 13-14 deferred, an answer
    # passes them by their soundness, so only a row the kernel rejects
    # meets them, which decides whether it was a candidate.
    answers: List[Dict[str, float]] = [{} for _ in queries]
    candidates = [len(own) for own in survivors]
    refine_seconds = [0.0] * len(queries)
    abandoned = 0
    with tracer.span("refine") as refine_span:
        for qid, own in enumerate(survivors):
            if not own:
                continue
            refine_started = time.perf_counter()
            local = filters[qid]
            found = answers[qid]
            for record, dist in zip(
                own,
                measure.distance_within_many(queries[qid], own, eps_list[qid]),
            ):
                if dist is not None:
                    found[record.tid] = dist
                    if deferred:
                        local.admit(record)
                elif deferred and _tail_rejects(local, record, metrics):
                    candidates[qid] -= 1
                else:
                    abandoned += 1
            refine_seconds[qid] = time.perf_counter() - refine_started
        total_candidates = sum(candidates)
        refine_span.set_attrs(
            refined=total_candidates,
            kernel_rows=sum(map(len, survivors)),
            answers=sum(map(len, answers)),
            early_abandoned=abandoned,
            measure=measure.name,
        )
    scan_span.set_attr("candidates", total_candidates)

    gone = {r.start for r in shared_report.skipped_ranges}
    scan_share = scan_seconds / len(queries)
    results = []
    for qid, own in enumerate(pairs):
        lost = [
            r for r, g in zip(own, holders[qid]) if plan[g].start in gone
        ] if gone else []
        results.append(
            ThresholdSearchResult(
                answers=answers[qid],
                candidates=candidates[qid],
                # every row in the query's ranges met its local filter
                retrieved_rows=filters[qid].stats.evaluated,
                pruning=None,
                pruning_seconds=pruning_seconds[qid],
                scan_seconds=scan_share,
                refine_seconds=refine_seconds[qid],
                resilience=dataclasses.replace(
                    shared_report,
                    ranges_total=len(own),
                    ranges_completed=len(own) - len(lost),
                    skipped_ranges=lost,
                ),
                filter_stats=filters[qid].stats,
            )
        )
    return results
