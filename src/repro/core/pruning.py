"""Global pruning (Section V-C, Algorithm 1).

The pruner walks the XZ* quad hierarchy top-down and keeps only index
spaces that could hold a trajectory within ``eps`` of the query:

* resolution band (Definitions 8-9, Lemmas 6-7): elements shallower
  than ``MinR`` cannot hold similar trajectories (they would occupy two
  sub-quads wider than the extended query), and elements deeper than
  ``MaxR`` are too small for any placement to stay within ``eps`` of
  every query-MBR edge;
* element distance (Lemmas 8-9): the enlarged element must intersect
  ``Ext(Q.MBR, eps)``, and ``minDistEE`` — a sound lower bound on the
  similarity of everything stored inside — must not exceed ``eps``.
  Both tests are monotone along the tree, so failing subtrees are cut;
* position codes (Lemmas 10-11): sub-quads farther than ``eps`` from
  the query's points kill every code containing them, and the surviving
  codes are checked with ``minDistIS``.

The survivors are merged into contiguous index-value ranges (the
encoding is depth-first precisely so this merge is productive).

**Occupied space only.**  The paper's Algorithm 1 decides from geometry
alone.  An engine's pruner also reads what its store holds
(``occupancy``, a :class:`~repro.core.storage.TrajectoryStore`): XZ*
numbers index spaces depth-first, so a cell's subtree and its own code
block are each one contiguous value range, and one bisect over the
store's occupied index values
(:meth:`~repro.core.storage.TrajectoryStore.holds_index_values`) says
whether any stored trajectory lies in it.  A cell whose subtree holds
none is dropped before Lemmas 8-9, with its whole subtree; a cell whose
code block holds none emits no code but still descends or collapses.
A range without a stored value holds no row, hence no answer, so the
plan covers exactly the occupied values the data-free plan covers.
Dropping an empty subtree between two occupied ones can split what the
data-free plan scans as one range, so two neighbouring ranges are
rejoined when their gap holds no stored value and the data-free plan
covers all of it: the plan seeks exactly where the data-free one does
(with ``range_merge_gap = 0``), over no wider a key range.  The plan
cache keys on the store's occupancy version, bumped whenever a new
index value appears.  A pruner built without ``occupancy`` plans
data-free: the serving coordinator, which holds no rows, and the
Figure 11 / ablation benches use that plan.

**The kernel.**  :class:`PruningKernel` runs Lemmas 8-11 for this planner
and top-k's best-first search alike, building no ``MBR``, ``Element`` or
quadrant sequence on the walk:

* an element is a cell ``(level, ix, iy, prefix)``; its world grid lines
  are ``element_world_mbr``'s expressions inlined, and ``prefix``, the
  digit sum ``sum_i q_i * N_is(i)``, is carried down the walk (a child
  adds ``q * N_is(l + 1)``), so a value is ``prefix + 9 (l - 1) + code -
  1`` (Definition 5);
* an edge-to-rectangle distance combines one interval gap per axis, and
  a sub-quad's gaps depend only on its column (x) or row (y), so one
  4 edges x 4 quads table per element serves every code: ``minDistIS``
  is the max over edges of the min over the code's quads;
* Lemma 10 is one broadcast of the query points against the two columns
  and two rows; the planner skips it at ``eps = inf``, which nothing
  exceeds.
* top-k ranks each code by the threshold below which both lemmas drop
  it (:meth:`PruningKernel.ranked_spaces`), from the same broadcast and
  table.

Plans are *equal* to those of the per-code ``MBR`` loops this replaced
(the oracle in ``tests/test_pruning_kernel.py``): the same gap
expressions, ``hypot`` and ``sqrt(min(dx*dx + dy*dy)) > eps``, and
``min``/``max`` only select, so no evaluation order can change a bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from repro.exceptions import QueryError
from repro.geometry.trajectory import Trajectory
from repro.index.position_code import (
    ALL_CODES,
    CODE_QUADS,
    CODES_PER_ELEMENT,
    CODES_PER_MAX_ELEMENT,
    NON_MAX_CODES,
)
from repro.index.quadrant import smallest_enlarged_element
from repro.index.ranges import IndexRange, merge_ranges, merge_values_to_ranges
from repro.index.xzstar import XZStarIndex
from repro.obs.tracing import NULL_TRACER

#: ``(level, ix, iy, prefix)``: an element plus its quadrant-sequence
#: digit sum ``sum_i q_i * N_is(i)`` (0 at the root)
Cell = Tuple[int, int, int, int]
ROOT_CELL: Cell = (0, 0, 0, 0)


def check_threshold(eps: float) -> None:
    """The one definition of a bad threshold, shared by every front
    door (engine, serving coordinator) and the planner.  NaN is
    bad too: every pruning test is ``bound > eps``, never true for NaN."""
    if not eps >= 0:
        raise QueryError(f"threshold must be non-negative, got {eps}")


def normalise_thresholds(
    queries: Iterable[Trajectory], eps
) -> Tuple[List[Trajectory], List[float]]:
    """``(queries, eps_list)`` as aligned, validated lists: ``eps`` is
    one threshold for the batch or an iterable aligned with ``queries``.
    The engine and the serving coordinator both normalise here, so they
    cannot disagree on what a bad argument is."""
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


def _code_table(codes) -> Tuple[Tuple[int, Tuple[int, ...], int], ...]:
    """``(code, quad indices, quad bit mask)`` per code; a quad's index
    is ``2 * column + row`` (a b c d = 0 1 2 3, the quadrant digits)."""
    table = []
    for code in codes:
        quads = tuple(sorted("abcd".index(q) for q in CODE_QUADS[code]))
        table.append((code, quads, sum(1 << q for q in quads)))
    return tuple(table)


_BELOW_MAX_CODES = _code_table(NON_MAX_CODES)
_MAX_CODES = _code_table(ALL_CODES)


def _gaps(lo: float, hi: float, a: float, b: float) -> Tuple[float, float, float]:
    """Gaps from ``[lo, hi]`` to the query-MBR edge extents along one
    axis: the whole side ``[a, b]``, its high end ``b`` and its low end
    ``a`` (0 where they overlap)."""
    return (
        max(0.0, lo - b, a - hi),
        max(0.0, lo - b, b - hi),
        max(0.0, lo - a, a - hi),
    )


def _edge(dx: float, dy: float) -> float:
    if dx == 0.0:
        return dy
    if dy == 0.0:
        return dx
    return math.hypot(dx, dy)


def _edge_distances(gx, gy) -> Tuple[float, float, float, float]:
    """Distances from the query-MBR edges (bottom, right, top, left) to
    the rectangle whose per-axis gaps are ``gx`` / ``gy``."""
    (full_x, high_x, low_x), (full_y, high_y, low_y) = gx, gy
    return (
        _edge(full_x, low_y), _edge(high_x, full_y),
        _edge(full_x, high_y), _edge(low_x, full_y),
    )


class PruningKernel:
    """Lemmas 8-11 of one query against XZ* cells, on plain floats."""

    def __init__(self, index: XZStarIndex, query: Trajectory):
        bounds = index.bounds
        self._origin = (bounds.min_x, bounds.min_y)
        self._size = (bounds.width, bounds.height)
        mbr = query.mbr
        self._x_side = (mbr.min_x, mbr.max_x)
        self._y_side = (mbr.min_y, mbr.max_y)
        #: (axis, 1, point), broadcast against (axis, column/row, 1) lines
        self._points = np.array(list(zip(*query.points)), dtype=float)[:, None, :]
        self._max_resolution = index.max_resolution
        levels = range(1, index.max_resolution + 1)
        self._n_is = (0,) + tuple(map(index.n_index_spaces, levels))
        self._root_block_start = index.root_block_start
        self._total_index_spaces = index.total_index_spaces

    # ------------------------------------------------------------------
    def children(self, cell: Cell) -> List[Cell]:
        """The four child cells in quadrant-digit order (0, 1, 2, 3)."""
        level, ix, iy, prefix = cell
        lv, bx, by = level + 1, ix << 1, iy << 1
        n = self._n_is[lv]
        return [
            (lv, bx, by, prefix),
            (lv, bx, by + 1, prefix + n),
            (lv, bx + 1, by, prefix + 2 * n),
            (lv, bx + 1, by + 1, prefix + 3 * n),
        ]

    def subtree_span(self, cell: Cell) -> Tuple[int, int]:
        """The cell's subtree as one value range.  Below the root this is
        ``XZStarIndex.subtree_span``; the root's is every index space,
        its own tail code block included."""
        level, prefix = cell[0], cell[3]
        if level == 0:
            return 0, self._total_index_spaces
        start = prefix + CODES_PER_ELEMENT * (level - 1)
        return start, start + self._n_is[level]

    def code_block(self, cell: Cell) -> Tuple[int, int]:
        """The cell's own position codes as one value range: nine
        values, ten at the maximum resolution; the root's sit in the
        tail block after every subtree."""
        level, prefix = cell[0], cell[3]
        if level == 0:
            first = self._root_block_start
        else:
            first = prefix + CODES_PER_ELEMENT * (level - 1)
        if level >= self._max_resolution:
            return first, first + CODES_PER_MAX_ELEMENT
        return first, first + CODES_PER_ELEMENT

    def lines(self, cell: Cell) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """World x and y of the element's grid lines: its lower edge, the
        line between its sub-quads, its upper edge.  The outer two are
        ``index.element_world_mbr``."""
        level, ix, iy, _ = cell
        w = 0.5**level
        (ox, oy), (sx, sy) = self._origin, self._size
        return (
            (ox + (ix * w) * sx, ox + ((ix + 1) * w) * sx, ox + ((ix + 2) * w) * sx),
            (oy + (iy * w) * sy, oy + ((iy + 1) * w) * sy, oy + ((iy + 2) * w) * sy),
        )

    def min_dist_ee(self, lines) -> float:
        """``minDistEE`` (Definition 10) of the element (Lemma 9)."""
        (x0, _, x1), (y0, _, y1) = lines
        gx, gy = _gaps(x0, x1, *self._x_side), _gaps(y0, y1, *self._y_side)
        return max(_edge_distances(gx, gy))

    def index_spaces(
        self, cell: Cell, lines, eps: float
    ) -> Tuple[List[Tuple[float, int]], int, int]:
        """Lemmas 10-11 on one element for the planner: the surviving
        ``(minDistIS, index value)`` pairs in code order, and how many
        codes a far quad (Lemma 10) and ``minDistIS > eps`` (Lemma 11)
        rejected.  ``eps = inf`` accepts every legal code."""
        far_mask = 0
        if eps != math.inf:
            for quad, d2 in enumerate(self._nearest_sq(lines)):
                if math.sqrt(d2) > eps:
                    far_mask |= 1 << quad
        first, codes, table = self._code_table(cell, lines)
        survivors: List[Tuple[float, int]] = []
        far = near = 0
        for code, quads, mask in codes:
            if mask & far_mask:
                far += 1
                continue
            dist = max(map(min, zip(*[table[q] for q in quads])))
            if dist > eps:
                near += 1
                continue
            survivors.append((dist, first + code - 1))
        return survivors, far, near

    def ranked_spaces(
        self, cell: Cell, lines, eps: float
    ) -> List[Tuple[float, int]]:
        """Lemmas 10-11 on one element for top-k: ``(bound, index
        value)`` in code order for every code whose bound is ``<= eps``.

        The bound is the threshold below which the planner drops the
        code: ``max(minDistIS, the largest of its quads' nearest-point
        distances)``.  Both halves are sound lower bounds (Lemma 5: a
        trajectory under the code has a point in each of its quads, and
        each query point is at least its nearest distance from them), so
        the bound orders best-first search, at ``eps = inf`` too."""
        quad = [math.sqrt(d2) for d2 in self._nearest_sq(lines)]
        first, codes, table = self._code_table(cell, lines)
        ranked: List[Tuple[float, int]] = []
        for code, quads, _ in codes:
            bound = max(map(min, zip(*[table[q] for q in quads])))
            for q in quads:
                if quad[q] > bound:
                    bound = quad[q]
            if bound <= eps:
                ranked.append((bound, first + code - 1))
        return ranked

    def _nearest_sq(self, lines) -> List[float]:
        """Squared distance from each sub-quad (a b c d) to its nearest
        query point: one broadcast of the points against the element's
        two columns and two rows (Lemma 10)."""
        grid, pts = np.array(lines), self._points
        gap = np.maximum(
            np.maximum(grid[:, :2, None] - pts, pts - grid[:, 1:, None]), 0.0
        )
        gap *= gap
        # squared distance of the nearest point per (column, row)
        return (gap[0][:, None, :] + gap[1][None, :, :]).min(axis=2).ravel().tolist()

    def _code_table(self, cell: Cell, lines):
        """The element's first index value, its legal ``(code, quads,
        mask)`` rows, and the distance from each query-MBR edge to each
        sub-quad, which ``minDistIS`` (Lemma 11) combines per code."""
        xs, ys = lines
        gx = [_gaps(xs[c], xs[c + 1], *self._x_side) for c in (0, 1)]
        gy = [_gaps(ys[r], ys[r + 1], *self._y_side) for r in (0, 1)]
        table = [_edge_distances(gx[c], gy[r]) for c in (0, 1) for r in (0, 1)]
        codes = _MAX_CODES if cell[0] >= self._max_resolution else _BELOW_MAX_CODES
        return self.code_block(cell)[0], codes, table


@dataclass
class PruningResult:
    """Output of one global-pruning pass."""

    values: List[int]
    ranges: List[IndexRange]
    min_resolution: int
    max_resolution: int
    elements_visited: int = 0
    #: cells dropped because the store holds no value in their subtree
    elements_pruned_empty: int = 0
    elements_pruned_distance: int = 0
    codes_pruned_far_quad: int = 0
    codes_pruned_min_dist: int = 0
    collapsed_subtrees: int = 0
    truncated: bool = False

    @property
    def num_index_spaces(self) -> int:
        return sum(len(r) for r in self.ranges)


class GlobalPruner:
    """Plans the index-value ranges for one query (Algorithm 1)."""

    def __init__(
        self,
        index: XZStarIndex,
        max_planned_elements: int = 8192,
        collapse_scale: float = 0.25,
        use_position_codes: bool = True,
        plan_cache_size: int = 0,
        metrics=None,
        range_merge_gap: int = 0,
        occupancy=None,
    ):
        self.index = index
        # What the store holds: anything with ``holds_index_values(start,
        # stop)`` and an ``occupancy_version`` that changes whenever a new
        # index value appears (a TrajectoryStore).  The walk then skips
        # every subtree and code block it proves empty; ``None`` plans
        # from geometry alone, the paper's data-free Algorithm 1.
        self.occupancy = occupancy
        self.max_planned_elements = max_planned_elements
        # Coalesce scan ranges separated by at most this many index
        # values.  Bridged values are a sound superset (extra rows die
        # in local filtering); the payoff is fewer range seeks.
        self.range_merge_gap = range_merge_gap
        # Plan cache: a pruning plan is a function of the query's
        # points, the threshold, the index geometry and — with an
        # occupancy source — the set of occupied index values.  Keys
        # carry the exact point tuple (the position-code lemmas read the
        # points, so an MBR-quantised key alone would be unsound), eps,
        # the two plan switches and the occupancy version, so a plan
        # made before a new value appeared is never served after it.
        from repro.kvstore.cache import ObjectLRUCache

        self.plan_cache = (
            ObjectLRUCache(plan_cache_size) if plan_cache_size > 0 else None
        )
        #: optional IOMetrics receiving plan_cache_hits / _misses
        self.metrics = metrics
        # Ablation switch: with position codes off, every legal code of
        # a surviving element is accepted (Lemmas 10-11 disabled) — the
        # element-level pruning of plain XZ-Ordering, on XZ* layout.
        self.use_position_codes = use_position_codes
        # Once an element's cell is below collapse_scale * eps, the
        # geometry inside it is finer than the query tolerance and
        # position codes cannot prune much: the whole subtree collapses
        # into one contiguous scan (sound superset; extra rows die in
        # local filtering).  This keeps the frontier proportional to
        # (query size / eps)^2 instead of (query size / finest cell)^2.
        self.collapse_scale = collapse_scale

    @classmethod
    def from_config(
        cls, index: XZStarIndex, config, metrics=None, occupancy=None
    ) -> "GlobalPruner":
        """A pruner with a :class:`~repro.core.config.TraSSConfig`'s
        planning knobs; ``occupancy`` as in the constructor."""
        return cls(
            index,
            config.max_planned_elements,
            plan_cache_size=config.plan_cache_size,
            metrics=metrics,
            range_merge_gap=config.range_merge_gap,
            occupancy=occupancy,
        )

    # ------------------------------------------------------------------
    def resolution_band(self, query: Trajectory, eps: float) -> Tuple[int, int]:
        """``(MinR, MaxR)`` for the query (Definitions 8-9).

        ``MinR`` is the resolution of ``SEE(Ext(Q.MBR, eps))``.  ``MaxR``
        is the deepest resolution whose enlarged elements are still big
        enough that a centred placement keeps ``d0`` and ``d1`` within
        ``eps`` (Lemma 7); when the query MBR is smaller than ``2*eps``
        no depth is too deep and ``MaxR`` is the index maximum.
        """
        bounds = self.index.bounds
        ext = bounds.normalize_mbr(query.mbr.expanded(eps))
        min_r = smallest_enlarged_element(ext, self.index.max_resolution).level

        norm_mbr = bounds.normalize_mbr(query.mbr)
        eps_norm = eps / min(bounds.width, bounds.height)
        need = max(norm_mbr.width, norm_mbr.height) - 2.0 * eps_norm
        if need <= 0:
            max_r = self.index.max_resolution
        else:
            # Enlarged width at level l is 2 * 2^-l; require >= need.
            max_r = int(math.floor(math.log2(2.0 / need)))
            max_r = max(0, min(self.index.max_resolution, max_r))
        return min_r, max_r

    # ------------------------------------------------------------------
    def prune(
        self, query: Trajectory, eps: float, tracer=None
    ) -> PruningResult:
        """Run Algorithm 1: candidate index values for ``(query, eps)``.

        With a plan cache attached, a repeated ``(query, eps)`` returns
        the previously computed :class:`PruningResult` (treat it as
        read-only) and skips the tree walk entirely.  ``tracer`` (a
        :class:`~repro.obs.tracing.Tracer`) records a ``prune`` span
        with the hierarchy-walk and range-merge tallies.
        """
        if tracer is None:
            tracer = NULL_TRACER
        check_threshold(eps)
        with tracer.span("prune", eps=eps) as span:
            cache = self.plan_cache
            cache_key = None
            if cache is not None:
                # The resolution band is a function of the points and
                # eps for this pruner, so it is neither in the key nor
                # computed on a hit.
                occupancy = self.occupancy
                cache_key = (
                    query.points,
                    eps,
                    self.use_position_codes,
                    self.range_merge_gap,
                    None if occupancy is None else occupancy.occupancy_version,
                )
                cached = cache.get(cache_key)
                if cached is not None:
                    if self.metrics is not None:
                        self.metrics.plan_cache_hits += 1
                    span.set_attr("plan_cache", "hit")
                    self._trace_plan(span, cached)
                    return cached
                if self.metrics is not None:
                    self.metrics.plan_cache_misses += 1
            result = self._prune_uncached(query, eps, tracer)
            if cache is not None:
                cache.put(cache_key, result)
            span.set_attr(
                "plan_cache", "miss" if cache is not None else "off"
            )
            self._trace_plan(span, result)
        return result

    @staticmethod
    def _trace_plan(span, result: PruningResult) -> None:
        span.set_attrs(
            min_resolution=result.min_resolution,
            max_resolution=result.max_resolution,
            elements_visited=result.elements_visited,
            elements_pruned_empty=result.elements_pruned_empty,
            elements_pruned_distance=result.elements_pruned_distance,
            codes_pruned_far_quad=result.codes_pruned_far_quad,
            codes_pruned_min_dist=result.codes_pruned_min_dist,
            collapsed_subtrees=result.collapsed_subtrees,
            truncated=result.truncated,
            key_ranges=len(result.ranges),
            index_spaces=result.num_index_spaces,
        )

    def _prune_uncached(
        self, query: Trajectory, eps: float, tracer=NULL_TRACER
    ) -> PruningResult:
        min_r, max_r = self.resolution_band(query, eps)
        result = PruningResult(
            values=[], ranges=[], min_resolution=min_r, max_resolution=max_r
        )
        if min_r > max_r:
            # Degenerate band: no element size is compatible.  This can
            # only happen through normalisation rounding; fall back to
            # the widest sound band.
            min_r = 0
            max_r = self.index.max_resolution

        kernel = PruningKernel(self.index, query)
        ext = query.mbr.expanded(eps)
        bounds = self.index.bounds
        world_scale = min(bounds.width, bounds.height)
        collapse_cell = self.collapse_scale * eps
        # Lemmas 10-11 at an infinite threshold accept every legal code:
        # the ablation without position codes.
        code_eps = eps if self.use_position_codes else math.inf
        # A subtree or code block holding no stored value holds no
        # answer: with an occupancy source, one bisect drops it before
        # any lemma runs.
        holds = None if self.occupancy is None else self.occupancy.holds_index_values

        def meets(lines) -> bool:
            """Lemma 8: the enlarged element meets the extended MBR.
            Lemma 9: minDistEE is monotone down the tree."""
            xs, ys = lines
            return not (
                ext.min_x > xs[2]
                or ext.max_x < xs[0]
                or ext.min_y > ys[2]
                or ext.max_y < ys[0]
                or kernel.min_dist_ee(lines) > eps
            )

        def collapses(level: int) -> bool:
            return (
                level >= max(min_r, 1)
                and level < max_r
                and 0.5**level * world_scale <= collapse_cell
            )

        subtree_ranges: List[IndexRange] = []
        #: (start, stop, cell): the subtrees and code blocks dropped as
        #: empty, which alone can stand between two ranges that the
        #: data-free plan scans as one
        dropped: List[Tuple[int, int, Cell]] = []
        stack: List[Cell] = [ROOT_CELL]
        with tracer.span("prune.walk") as walk_span:
            while stack:
                cell = stack.pop()
                level = cell[0]
                result.elements_visited += 1
                if holds is not None:
                    first, stop = kernel.subtree_span(cell)
                    if not holds(first, stop):
                        result.elements_pruned_empty += 1
                        dropped.append((first, stop, cell))
                        continue
                lines = kernel.lines(cell)
                if not meets(lines):
                    result.elements_pruned_distance += 1
                    continue
                if result.elements_visited > self.max_planned_elements:
                    # Safety valve: accept the remaining subtree wholesale.
                    # A superset of index spaces is sound — extra rows are
                    # removed by local filtering and refinement.
                    result.truncated = True
                    if level >= 1:
                        subtree_ranges.append(IndexRange(*kernel.subtree_span(cell)))
                    continue
                if collapses(level):
                    subtree_ranges.append(IndexRange(*kernel.subtree_span(cell)))
                    result.collapsed_subtrees += 1
                    continue
                if level >= min_r:
                    first, stop = kernel.code_block(cell)
                    if holds is None or holds(first, stop):
                        spaces, far, near = kernel.index_spaces(
                            cell, lines, code_eps
                        )
                        result.values.extend(value for _, value in spaces)
                        result.codes_pruned_far_quad += far
                        result.codes_pruned_min_dist += near
                    else:
                        dropped.append((first, stop, cell))
                if level < max_r:
                    stack.extend(kernel.children(cell))
        walk_span.set_attrs(
            elements_visited=result.elements_visited,
            elements_pruned_empty=result.elements_pruned_empty,
            elements_pruned_distance=result.elements_pruned_distance,
            codes_pruned_far_quad=result.codes_pruned_far_quad,
            codes_pruned_min_dist=result.codes_pruned_min_dist,
            collapsed_subtrees=result.collapsed_subtrees,
        )

        def data_free_covers(cell: Cell, start: int, stop: int) -> bool:
            """Whether the data-free walk, which reaches ``cell``, plans
            every value of ``[start, stop)`` inside the cell's subtree.
            It stops at the first value it would leave out."""
            first, last = kernel.subtree_span(cell)
            start, stop = max(start, first), min(stop, last)
            if start >= stop:
                return True
            lines = kernel.lines(cell)
            if not meets(lines):
                return False
            level = cell[0]
            if collapses(level):
                return True
            first, last = kernel.code_block(cell)
            if start < last and first < stop:
                if level < min_r:
                    return False
                spaces = kernel.index_spaces(cell, lines, code_eps)[0]
                planned = {value for _, value in spaces}
                if any(
                    value not in planned
                    for value in range(max(start, first), min(stop, last))
                ):
                    return False
            if level >= max_r:
                return first <= start and stop <= last
            return all(
                data_free_covers(child, start, stop)
                for child in kernel.children(cell)
            )

        with tracer.span("prune.ranges") as merge_span:
            gap = self.range_merge_gap
            value_ranges = merge_values_to_ranges(result.values, gap)
            result.ranges = merge_ranges(value_ranges + subtree_ranges)
            merged_away = 0
            if gap > 0:
                # How many seeks the gap bridging saved on this plan.
                exact = merge_ranges(
                    merge_values_to_ranges(result.values) + subtree_ranges
                )
                merged_away = len(exact) - len(result.ranges)
                if self.metrics is not None:
                    self.metrics.ranges_merged += merged_away
            rejoined = 0
            if dropped and len(result.ranges) > 1:
                # Dropping an empty subtree or code block can split what
                # the data-free plan scans as one range.  Every value of
                # a gap the data-free plan covers lies in a dropped
                # piece, so rejoin two neighbours when the pieces tile
                # their gap and the data-free walk covers each: the plan
                # then seeks exactly where the data-free one does, over
                # no wider a key range, and reads the same rows.
                dropped.sort()
                starts = [piece[0] for piece in dropped]

                def data_free_gap(start: int, stop: int) -> bool:
                    i = bisect_left(starts, start)
                    while start < stop:
                        if i == len(dropped) or starts[i] != start:
                            return False
                        start, piece_stop, cell = dropped[i]
                        if not data_free_covers(cell, start, piece_stop):
                            return False
                        start, i = piece_stop, i + 1
                    return True

                joined = result.ranges[:1]
                for r in result.ranges[1:]:
                    last = joined[-1]
                    if data_free_gap(last.stop, r.start):
                        joined[-1] = IndexRange(last.start, r.stop)
                        rejoined += 1
                    else:
                        joined.append(r)
                result.ranges = joined
            merge_span.set_attrs(
                values=len(result.values),
                subtree_ranges=len(subtree_ranges),
                key_ranges=len(result.ranges),
                ranges_merged=merged_away,
                ranges_rejoined=rejoined,
            )
        return result
