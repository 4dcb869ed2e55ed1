"""Top-k similarity search (Definition 4, Algorithm 4).

Best-first traversal: a priority queue of enlarged elements ordered by
``minDistEE`` feeds a priority queue of scan units ordered by
``minDistIS``; units are materialised (scanned, locally filtered,
refined) in nearest-first order.  Once ``k`` results exist their worst
distance becomes the working threshold ``eps``, which retroactively
prunes both queues — the loop ends when the nearest unexplored unit is
already farther than ``eps`` (Algorithm 4 lines 11-12).

Scan units come in two granularities:

* a single index space ``(element, position code)`` with priority
  ``minDistIS`` (Lemma 11) — used while refining the tree pays off;
* a whole element subtree as one contiguous key range with priority
  ``minDistEE`` (Lemma 9) — used once an element's cell is already
  finer than the working threshold (further splitting cannot prune) or
  the expansion budget is spent.  This is the same collapse the
  encoding's depth-first layout exists to enable.

Both priorities are sound lower bounds on the similarity distance of
every trajectory stored below them and are monotone along the tree, so
nearest-first order never misses a closer trajectory; rows a unit
over-fetches are removed by local filtering and exact refinement, so
the answer set is exact regardless of granularity choices.

Both come from the planner's per-element kernel
(:class:`~repro.core.pruning.PruningKernel`): the element queue holds
its cells, and an expanded element pushes the kernel's surviving
``(minDistIS, index value)`` pairs at the working threshold.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.executor import ScanReport
from repro.core.local_filter import LocalFilter, LocalFilterStats
from repro.core.pruning import ROOT_CELL, Cell, GlobalPruner, PruningKernel
from repro.core.threshold import make_row_filter
from repro.core.storage import TrajectoryStore
from repro.exceptions import QueryError
from repro.geometry.trajectory import Trajectory
from repro.index.quadrant import smallest_enlarged_element
from repro.index.ranges import IndexRange
from repro.measures.base import Measure
from repro.obs.tracing import NULL_TRACER


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


def check_k(k: int) -> None:
    """The one definition of a bad ``k``, shared by every front door."""
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")


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
    local = LocalFilter(
        query,
        measure,
        math.inf,
        store.config.dp_tolerance,
        box_mode=store.config.box_mode,
    )
    local.tracer = tracer
    budget = pruner.max_planned_elements
    query_see_level = smallest_enlarged_element(
        bounds.normalize_mbr(query_mbr), index.max_resolution
    ).level

    #: max-heap of (-distance, tid); worst answer on top
    results: List[Tuple[float, str]] = []
    seen_tids: Dict[str, float] = {}

    def current_eps() -> float:
        return -results[0][0] if len(results) >= k else math.inf

    # Element queue (EQ) and scan-unit queue (IQ); the tiebreak counter
    # keeps heap comparisons away from non-comparable payloads.
    eq: List[Tuple[float, int, Cell]] = []
    iq: List[Tuple[float, int, IndexRange]] = []
    tick = 0

    def push_element(cell: Cell) -> None:
        nonlocal tick
        heapq.heappush(eq, (kernel.min_dist_ee(kernel.lines(cell)), tick, cell))
        tick += 1

    push_element(ROOT_CELL)
    elements_expanded = 0
    units_scanned = 0
    candidates = 0
    retrieved = 0

    def push_subtree_unit(cell: Cell, dist: float) -> None:
        """One contiguous range covering the element's whole subtree."""
        nonlocal tick
        if cell[0] == 0:
            # The root's subtree is the entire main block plus its own
            # tail-block codes.
            heapq.heappush(
                iq, (dist, tick, IndexRange(0, index.total_index_spaces))
            )
        else:
            heapq.heappush(
                iq, (dist, tick, IndexRange(*kernel.subtree_span(cell)))
            )
        tick += 1

    def expand_element(cell: Cell, element_dist: float) -> None:
        """Emit the element's surviving index spaces and either descend
        or collapse the subtree into a single scan unit."""
        nonlocal tick, elements_expanded
        elements_expanded += 1
        threshold = current_eps()
        level = cell[0]
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
        cell_world = 0.5**level * world_scale
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

        if emit_codes:
            spaces, _, _ = kernel.index_spaces(cell, kernel.lines(cell), threshold)
            for dist, value in spaces:
                heapq.heappush(iq, (dist, tick, IndexRange(value, value + 1)))
                tick += 1
        if can_descend:
            for child in kernel.children(cell):
                push_element(child)

    scan_report = ScanReport()
    deadline = store.executor.deadline_from_now()

    q_start, q_end = query_points[0], query_points[-1]
    use_start_end = measure.supports_start_end_filter

    def refine_lower_bound(record) -> float:
        """A cheap sound lower bound on ``f(query, record)`` — the MBR
        gap (Lemma 5) sharpened with the start/end distances (Lemma 12)
        for order-aware measures.  Refining a unit's survivors in this
        order tightens the working threshold as fast as possible, so
        later (farther) candidates abandon early or skip refinement."""
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

    def materialise(unit: IndexRange) -> None:
        """Scan one unit, filter locally, refine survivors.

        Each range's survivors are refined nearest-first (by
        :func:`refine_lower_bound`) with the fused early-abandoning
        ``distance_within`` at the current working threshold: a
        candidate that cannot beat the k-th answer is dropped without
        an exact distance, and each accepted answer shrinks the bound
        for the rest of the batch.

        The per-range scans run under the resilient executor; a retry
        after a mid-range transient fault re-streams the range — the
        batch of a failed attempt is discarded unrefined and the
        ``seen_tids`` check makes any re-refinement a no-op, so answers
        stay exact under masked faults.

        A unit whose every salt copy the table proves empty holds no
        candidate: it is dropped before its span, row filter or
        executor call exist, and does not count as scanned.
        """
        nonlocal candidates, retrieved, units_scanned
        scan_ranges = store.scan_ranges_for([unit])
        if not scan_ranges:
            return
        units_scanned += 1
        local.set_threshold(current_eps())
        row_filter = make_row_filter(store, local)
        rows_before = store.metrics.rows_scanned
        candidates_before = candidates

        def consume(scan_range) -> None:
            nonlocal candidates
            batch = []
            for key, _ in store.executor.scan_chunk(scan_range, row_filter):
                candidates += 1
                record = row_filter.accepted.pop(bytes(key))
                if record.tid in seen_tids:
                    continue
                batch.append(record)
            if not batch:
                return
            batch.sort(key=refine_lower_bound)
            for record in batch:
                if record.tid in seen_tids:
                    continue
                dist = measure.distance_within(
                    query_points, record.points, current_eps()
                )
                # Abandoned candidates are provably worse than the k-th
                # answer; mark them seen so a re-scan skips them.
                seen_tids[record.tid] = math.inf if dist is None else dist
                if dist is None:
                    continue
                if len(results) < k:
                    heapq.heappush(results, (-dist, record.tid))
                elif dist < -results[0][0]:
                    heapq.heapreplace(results, (-dist, record.tid))
            local.set_threshold(current_eps())

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
                answers=len(results),
            )

    with tracer.span("search", k=k) as search_span:
        while eq or iq:
            if scan_report.deadline_exceeded:
                break  # budget spent; completeness accounting says how much
            eps = current_eps()
            eq_top = eq[0][0] if eq else math.inf
            iq_top = iq[0][0] if iq else math.inf
            if min(eq_top, iq_top) > eps:
                break  # nothing unexplored can beat the current k-th answer
            if iq_top <= eq_top:
                _, _, unit = heapq.heappop(iq)
                materialise(unit)
            else:
                dist, _, cell = heapq.heappop(eq)
                expand_element(cell, dist)
        search_span.set_attrs(
            units_scanned=units_scanned,
            elements_expanded=elements_expanded,
            candidates=candidates,
            rows_retrieved=retrieved,
        )

    answers = sorted((-neg, tid) for neg, tid in results)
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
