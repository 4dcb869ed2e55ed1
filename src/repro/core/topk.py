"""Top-k similarity search (Definition 4, Algorithm 4).

One best-first loop over three priority queues, each keyed by a sound
lower bound on the similarity distance of everything it stands for:

* **elements** (EQ), by ``minDistEE`` (Lemma 9);
* **scan units** (IQ): a single index space ``(element, position
  code)``, by the threshold below which Lemmas 10 and 11 both drop the
  code — ``minDistIS`` max'ed with the farthest of its quads' nearest
  query point — used while refining the tree pays off; or a whole
  element subtree as one contiguous key range, by ``minDistEE``, once
  the element's cell is already finer than the working threshold or the
  expansion budget is spent (the collapse the encoding's depth-first
  layout exists to enable);
* **candidates** (CQ): rows a fully scanned range delivered through the
  local filter, by the MBR gap (Lemma 5) sharpened with the start/end
  distances (Lemma 12) where the measure has them.

The loop pops whichever has the smallest bound: an element is expanded,
a unit is scanned and its survivors queued, a candidate is refined with
the early-abandoning ``distance_within`` — the only place a measure's
kernel runs.  The working threshold ``eps`` is the k-th smallest
*upper* bound known per trajectory: the exact distance once refined,
``Measure.upper_bound`` (a greedy coupling) while queued.  So ``eps``
is finite as soon as ``k`` candidates are queued, it only shrinks, and
it prunes all three queues; the loop ends when nothing queued is
below it (Algorithm 4 lines 11-12), by which time every one of the k
is refined.

An element collapses into one subtree scan once its cell is below
``eps``; before testing that, queued candidates whose bound is below
the cell are refined while ``eps`` is not, or a loose upper bound would
collapse subtrees a tighter one descends (and scan more rows).  A
candidate is dropped only when its bound exceeds ``eps`` by more than
:data:`~repro.measures.base.RELATIVE_SLACK`: ``math.hypot`` may exceed
a kernel's ``sqrt(dx*dx + dy*dy)`` by an ulp, and an endpoint pair can
set the k-th distance.

The search walks only occupied space.  XZ* numbers index spaces
depth-first, so an element's subtree and its own code block are each
one contiguous value range, and the store answers whether any stored
trajectory has a value in it with one bisect over its sorted occupied
index values
(:meth:`~repro.core.storage.TrajectoryStore.holds_index_values`): no
row key is packed, no salt walked and no segment block decoded.  An
element whose subtree is empty is never queued; an expanded element
whose code block is empty emits no code unit but still descends or
collapses.  A range without a key holds no row, hence no answer, and
dropping it can only tighten ``eps`` sooner.  A unit that is scanned
still keeps only its salts' occupied key ranges
(:meth:`~repro.core.storage.TrajectoryStore.scan_ranges_for`).

Every priority is monotone along the tree, so nearest-first order never
misses a closer trajectory; rows a unit over-fetches are removed by
local filtering and refinement, so the answer set is exact regardless
of granularity choices.  Element and unit bounds come from the
planner's per-element kernel (:class:`~repro.core.pruning.
PruningKernel`).
"""

from __future__ import annotations

import heapq
import math
import numbers
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.executor import ScanReport
from repro.core.local_filter import (
    LocalFilter,
    LocalFilterRowFilter,
    LocalFilterStats,
)
from repro.core.pruning import ROOT_CELL, Cell, GlobalPruner, PruningKernel
from repro.core.storage import TrajectoryStore
from repro.exceptions import QueryError
from repro.geometry.trajectory import Trajectory
from repro.index.quadrant import smallest_enlarged_element
from repro.index.ranges import IndexRange
from repro.measures.base import RELATIVE_SLACK, Measure
from repro.obs.tracing import NULL_TRACER

#: a candidate bound must exceed eps by more than this factor to drop it
_SLACK = 1.0 + RELATIVE_SLACK


@dataclass
class TopKSearchResult:
    """The k nearest trajectories plus search accounting."""

    #: (distance, tid) sorted ascending
    answers: List[Tuple[float, str]]
    candidates: int
    retrieved_rows: int
    #: units with at least one occupied (range, salt) pair, scanned
    units_scanned: int
    elements_expanded: int
    total_seconds: float
    #: retry / degraded-mode accounting across every scanned unit
    resilience: Optional[ScanReport] = None
    #: per-lemma rejection funnel from local filtering (None only on a
    #: cluster result no partition answered)
    filter_stats: Optional[LocalFilterStats] = None

    @property
    def worst_distance(self) -> float:
        return self.answers[-1][0] if self.answers else math.inf

    @property
    def completeness(self) -> float:
        """Fraction of planned key ranges fully scanned; < 1.0 means
        the k answers may miss trajectories from skipped ranges."""
        if self.resilience is None:
            return 1.0
        return self.resilience.completeness

    @property
    def skipped_ranges(self) -> List:
        """Exactly the key ranges degraded mode left unscanned."""
        if self.resilience is None:
            return []
        return list(self.resilience.skipped_ranges)


def check_k(k) -> None:
    """The one definition of a bad ``k``, shared by every front door:
    anything but an integer ``>= 1`` (``bool`` is not a count)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise QueryError(f"k must be an integer >= 1, got {k!r}")


class _KBest:
    """The ``k`` smallest per-trajectory bounds known so far.

    A bound only ever shrinks (an upper bound, then the exact distance
    it bounds), so a max-heap with stale entries suffices: an entry is
    live while ``bound[tid]`` still equals it, and stale entries of a
    member are larger than its live one, so they surface first and are
    dropped on read.
    """

    __slots__ = ("k", "bound", "heap")

    def __init__(self, k: int):
        self.k = k
        #: member tid -> its current bound
        self.bound: Dict[str, float] = {}
        #: (-bound, tid), live and stale
        self.heap: List[Tuple[float, str]] = []

    def eps(self) -> float:
        """The k-th smallest bound; ``inf`` until there are ``k``."""
        if len(self.bound) < self.k:
            return math.inf
        heap, bound = self.heap, self.bound
        while bound.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        return -heap[0][0]

    def offer(self, tid: str, value: float) -> None:
        current = self.bound.get(tid)
        if current is not None:
            if value < current:
                self.bound[tid] = value
                heapq.heappush(self.heap, (-value, tid))
            return
        if len(self.bound) >= self.k:
            if not value < self.eps():
                return
            del self.bound[heapq.heappop(self.heap)[1]]
        self.bound[tid] = value
        heapq.heappush(self.heap, (-value, tid))


def topk_search(
    store: TrajectoryStore,
    pruner: GlobalPruner,
    measure: Measure,
    query: Trajectory,
    k: int,
    tracer=None,
) -> TopKSearchResult:
    """Run Algorithm 4 against a trajectory store.

    ``tracer`` records one ``topk.unit`` span per materialised scan
    unit (nearest-first order is the trace order) under a ``search``
    span carrying the queue tallies.
    """
    check_k(k)
    if tracer is None:
        tracer = NULL_TRACER
    started = time.perf_counter()

    index = store.index
    bounds = index.bounds
    world_scale = min(bounds.width, bounds.height)
    query_mbr = query.mbr
    query_points = query.points
    kernel = PruningKernel(index, query)
    local = LocalFilter(query, measure, math.inf, store.config.dp_tolerance)
    local.tracer = tracer
    budget = pruner.max_planned_elements
    query_see_level = smallest_enlarged_element(
        bounds.normalize_mbr(query_mbr), index.max_resolution
    ).level

    best = _KBest(k)
    #: tids queued or dropped; a re-scanned row is skipped
    seen_tids: Set[str] = set()
    #: refined tids within the threshold they were refined at
    exact: Set[str] = set()

    # Element queue (EQ), scan-unit queue (IQ) and candidate queue
    # (CQ); the tiebreak counter keeps heap comparisons away from
    # non-comparable payloads.
    eq: List[Tuple[float, int, Cell]] = []
    iq: List[Tuple[float, int, IndexRange]] = []
    cq: List[Tuple[float, int, object, float]] = []
    tick = 0

    def push_element(cell: Cell) -> None:
        """Queue the element unless the store proves its subtree empty:
        a subtree without a key holds no candidate."""
        nonlocal tick, empty_subtrees
        if not store.holds_index_values(*kernel.subtree_span(cell)):
            empty_subtrees += 1
            return
        heapq.heappush(eq, (kernel.min_dist_ee(kernel.lines(cell)), tick, cell))
        tick += 1

    elements_expanded = 0
    empty_subtrees = 0
    units_scanned = 0
    candidates = 0
    retrieved = 0
    refined = 0
    push_element(ROOT_CELL)

    q_start, q_end = query_points[0], query_points[-1]
    use_start_end = measure.supports_start_end_filter

    def refine_lower_bound(record) -> float:
        """A cheap sound lower bound on ``f(query, record)`` — the MBR
        gap (Lemma 5) sharpened with the start/end distances (Lemma 12)
        for order-aware measures: the candidate's queue priority."""
        bound = query_mbr.distance_to_rect(record.mbr)
        if use_start_end:
            (sx, sy), (ex, ey) = record.start, record.end
            start = math.hypot(q_start[0] - sx, q_start[1] - sy)
            end = math.hypot(q_end[0] - ex, q_end[1] - ey)
            if start > bound:
                bound = start
            if end > bound:
                bound = end
        return bound

    def enqueue(record) -> None:
        """Queue one candidate of a fully scanned range, offering its
        upper bound when that could tighten ``eps``."""
        nonlocal tick
        tid = record.tid
        if tid in seen_tids:
            return
        seen_tids.add(tid)
        lower = refine_lower_bound(record)
        eps = best.eps()
        if lower > eps * _SLACK:
            return  # provably worse than k queued candidates
        upper = math.inf
        if lower < eps:
            upper = measure.upper_bound(query, record)
            best.offer(tid, upper)
        heapq.heappush(cq, (lower, tick, record, upper))
        tick += 1

    def refine() -> None:
        """Refine the nearest queued candidate at the working threshold
        (or its own upper bound, when tighter: the kernel's band is
        then narrower and still returns the exact distance)."""
        nonlocal refined
        _, _, record, upper = heapq.heappop(cq)
        refined += 1
        dist = measure.distance_within(query, record, min(best.eps(), upper))
        # None: provably worse than the k-th bound, so not a member.
        if dist is not None:
            best.offer(record.tid, dist)
            exact.add(record.tid)

    def push_subtree_unit(cell: Cell, dist: float) -> None:
        """One contiguous range covering the element's whole subtree."""
        nonlocal tick
        heapq.heappush(iq, (dist, tick, IndexRange(*kernel.subtree_span(cell))))
        tick += 1

    def expand_element(cell: Cell, element_dist: float) -> None:
        """Emit the element's surviving index spaces and either descend
        or collapse the subtree into a single scan unit."""
        nonlocal tick, elements_expanded
        elements_expanded += 1
        level = cell[0]
        cell_world = 0.5**level * world_scale
        # Tighten before a collapse: candidates nearer than the cell
        # may pull eps below it, and then the element descends.
        while cq and cq[0][0] < cell_world <= best.eps() < math.inf:
            refine()
        threshold = best.eps()
        emit_codes = True
        max_level = index.max_resolution
        if math.isfinite(threshold):
            # Lemmas 6-7: elements outside the resolution band hold no
            # answers — too-shallow ones still need descending, but
            # their own codes are skipped; too-deep ones stop here.
            min_r, max_r = pruner.resolution_band(query, threshold)
            if level > max_r:
                return
            emit_codes = level >= min_r
            max_level = min(max_level, max_r)

        can_descend = level < max_level
        if math.isfinite(threshold):
            # Splitting below the threshold's own scale cannot prune.
            refine_pays = cell_world > threshold
        else:
            # No threshold yet: refine down to the query's own element
            # size so nearby subtrees materialise quickly and seed eps.
            refine_pays = level < query_see_level
        if elements_expanded >= budget:
            refine_pays = False
        if can_descend and not refine_pays:
            # Collapse: the subtree becomes one contiguous scan.
            push_subtree_unit(cell, element_dist)
            return

        # An occupied subtree may keep all its rows below the element.
        if emit_codes and store.holds_index_values(*kernel.code_block(cell)):
            lines = kernel.lines(cell)
            for bound, value in kernel.ranked_spaces(cell, lines, threshold):
                heapq.heappush(iq, (bound, tick, IndexRange(value, value + 1)))
                tick += 1
        if can_descend:
            for child in kernel.children(cell):
                push_element(child)

    scan_report = ScanReport()
    deadline = store.executor.deadline_from_now()

    def materialise(unit: IndexRange) -> None:
        """Scan one unit, filter locally, queue the survivors.

        The per-range scans run under the resilient executor, and a
        range's survivors are queued only once its scan has completed:
        a retry after a mid-range transient fault re-streams the range,
        the rows of the failed attempt are discarded, and ``seen_tids``
        makes any re-delivery a no-op, so answers stay exact under
        masked faults.

        A unit whose every salt copy the table proves empty holds no
        candidate: it is dropped before its span, row filter or
        executor call exist, and does not count as scanned.
        """
        nonlocal candidates, retrieved, units_scanned
        scan_ranges = store.scan_ranges_for([unit])
        if not scan_ranges:
            return
        units_scanned += 1
        local.set_threshold(best.eps())
        row_filter = LocalFilterRowFilter(local, decoder=store.record_decoder)
        rows_before = store.metrics.rows_scanned
        candidates_before = candidates

        def consume(scan_range) -> None:
            nonlocal candidates
            batch = []
            for key, _ in store.executor.scan_chunk(scan_range, row_filter):
                candidates += 1
                batch.append(row_filter.accepted.pop(bytes(key)))
            for record in batch:
                enqueue(record)
            local.set_threshold(best.eps())

        with tracer.span(
            "topk.unit", start=unit.start, stop=unit.stop
        ) as unit_span:
            store.executor.execute(
                scan_ranges,
                consume,
                report=scan_report,
                deadline=deadline,
            )
            unit_rows = store.metrics.rows_scanned - rows_before
            retrieved += unit_rows
            unit_span.set_attrs(
                rows=unit_rows,
                candidates=candidates - candidates_before,
                queued=len(cq),
            )

    with tracer.span("search", k=k) as search_span:
        while True:
            eps = best.eps()
            # Nothing queued below eps (with the float slack) can still
            # be an answer.
            nearest = cq[0][0] if cq else math.inf
            if nearest > eps * _SLACK:
                nearest = math.inf
            if scan_report.deadline_exceeded:
                # Budget spent (completeness says how much): no new
                # scans, but what fully scanned ranges delivered is
                # still refined.
                if nearest == math.inf:
                    break
                refine()
                continue
            eq_top = eq[0][0] if eq else math.inf
            iq_top = iq[0][0] if iq else math.inf
            frontier = min(eq_top, iq_top)
            if frontier > eps:
                frontier = math.inf
            if nearest == frontier == math.inf:
                break
            if nearest <= frontier:
                refine()
            elif iq_top <= eq_top:
                materialise(heapq.heappop(iq)[2])
            else:
                dist, _, cell = heapq.heappop(eq)
                expand_element(cell, dist)
        search_span.set_attrs(
            units_scanned=units_scanned,
            elements_expanded=elements_expanded,
            empty_subtrees=empty_subtrees,
            candidates=candidates,
            refined=refined,
            rows_retrieved=retrieved,
        )

    # A member's bound is queued below eps * _SLACK, so the loop only
    # ends once every member is refined: the answers are exact.
    answers = sorted(
        (value, tid) for tid, value in best.bound.items() if tid in exact
    )
    return TopKSearchResult(
        answers=answers,
        candidates=candidates,
        retrieved_rows=retrieved,
        units_scanned=units_scanned,
        elements_expanded=elements_expanded,
        total_seconds=time.perf_counter() - started,
        resilience=scan_report,
        filter_stats=local.stats,
    )
