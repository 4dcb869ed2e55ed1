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
  and two rows, skipped at ``eps = inf``, which nothing exceeds.

Plans are *equal* to those of the per-code ``MBR`` loops this replaced
(the oracle in ``tests/test_pruning_kernel.py``): the same gap
expressions, ``hypot`` and ``sqrt(min(dx*dx + dy*dy)) > eps``, and
``min``/``max`` only select, so no evaluation order can change a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.exceptions import QueryError
from repro.geometry.trajectory import Trajectory
from repro.index.position_code import (
    ALL_CODES,
    CODE_QUADS,
    CODES_PER_ELEMENT,
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
    door (engine, batch, serving coordinator) and the planner.  NaN is
    bad too: every pruning test is ``bound > eps``, never true for NaN."""
    if not eps >= 0:
        raise QueryError(f"threshold must be non-negative, got {eps}")


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
        """``XZStarIndex.subtree_span`` of a cell below the root."""
        level, prefix = cell[0], cell[3]
        start = prefix + CODES_PER_ELEMENT * (level - 1)
        return start, start + self._n_is[level]

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
        """Lemmas 10-11 on one element: the surviving ``(minDistIS,
        index value)`` pairs in code order, and how many codes a far
        quad (Lemma 10) and ``minDistIS > eps`` (Lemma 11) rejected.
        ``eps = inf`` accepts every legal code."""
        level, prefix = cell[0], cell[3]
        xs, ys = lines
        far_mask = 0
        if eps != math.inf:
            grid, pts = np.array(lines), self._points
            gap = np.maximum(
                np.maximum(grid[:, :2, None] - pts, pts - grid[:, 1:, None]), 0.0
            )
            gap *= gap
            # squared distance of the nearest point per (column, row)
            nearest = (gap[0][:, None, :] + gap[1][None, :, :]).min(axis=2)
            for quad, d2 in enumerate(nearest.ravel().tolist()):
                if math.sqrt(d2) > eps:
                    far_mask |= 1 << quad

        gx = [_gaps(xs[c], xs[c + 1], *self._x_side) for c in (0, 1)]
        gy = [_gaps(ys[r], ys[r + 1], *self._y_side) for r in (0, 1)]
        table = [_edge_distances(gx[c], gy[r]) for c in (0, 1) for r in (0, 1)]
        if level == 0:
            first = self._root_block_start
        else:
            first = prefix + CODES_PER_ELEMENT * (level - 1)
        codes = _MAX_CODES if level >= self._max_resolution else _BELOW_MAX_CODES
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


@dataclass
class PruningResult:
    """Output of one global-pruning pass."""

    values: List[int]
    ranges: List[IndexRange]
    min_resolution: int
    max_resolution: int
    elements_visited: int = 0
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
    ):
        self.index = index
        self.max_planned_elements = max_planned_elements
        # Coalesce scan ranges separated by at most this many index
        # values.  Bridged values are a sound superset (extra rows die
        # in local filtering); the payoff is fewer range seeks.
        self.range_merge_gap = range_merge_gap
        # Plan cache: a pruning plan is a pure function of the query's
        # points, the threshold and the index geometry — nothing about
        # the stored data enters Algorithm 1 — so cached plans stay
        # sound across ingests.  Keys carry the exact point tuple (the
        # position-code lemmas read the points, so an MBR-quantised key
        # alone would be unsound) plus eps and the resolution band.
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
            band = self.resolution_band(query, eps)
            cache = self.plan_cache
            cache_key = None
            if cache is not None:
                cache_key = (
                    query.points,
                    eps,
                    band,
                    self.use_position_codes,
                    self.range_merge_gap,
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
            result = self._prune_uncached(query, eps, band, tracer)
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
            elements_pruned_distance=result.elements_pruned_distance,
            codes_pruned_far_quad=result.codes_pruned_far_quad,
            codes_pruned_min_dist=result.codes_pruned_min_dist,
            collapsed_subtrees=result.collapsed_subtrees,
            truncated=result.truncated,
            key_ranges=len(result.ranges),
            index_spaces=result.num_index_spaces,
        )

    def _prune_uncached(
        self, query: Trajectory, eps: float, band: Tuple[int, int], tracer=NULL_TRACER
    ) -> PruningResult:
        min_r, max_r = band
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

        subtree_ranges: List[IndexRange] = []
        stack: List[Cell] = [ROOT_CELL]
        with tracer.span("prune.walk") as walk_span:
            while stack:
                cell = stack.pop()
                level = cell[0]
                result.elements_visited += 1
                lines = xs, ys = kernel.lines(cell)
                # Lemma 8: the enlarged element must meet the extended
                # MBR.  Lemma 9: minDistEE is monotone down the tree.
                if (
                    ext.min_x > xs[2]
                    or ext.max_x < xs[0]
                    or ext.min_y > ys[2]
                    or ext.max_y < ys[0]
                    or kernel.min_dist_ee(lines) > eps
                ):
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
                if (
                    level >= max(min_r, 1)
                    and level < max_r
                    and 0.5**level * world_scale <= collapse_cell
                ):
                    subtree_ranges.append(IndexRange(*kernel.subtree_span(cell)))
                    result.collapsed_subtrees += 1
                    continue
                if level >= min_r:
                    spaces, far, near = kernel.index_spaces(cell, lines, code_eps)
                    result.values.extend(value for _, value in spaces)
                    result.codes_pruned_far_quad += far
                    result.codes_pruned_min_dist += near
                if level < max_r:
                    stack.extend(kernel.children(cell))
        walk_span.set_attrs(
            elements_visited=result.elements_visited,
            elements_pruned_distance=result.elements_pruned_distance,
            codes_pruned_far_quad=result.codes_pruned_far_quad,
            codes_pruned_min_dist=result.codes_pruned_min_dist,
            collapsed_subtrees=result.collapsed_subtrees,
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
            merge_span.set_attrs(
                values=len(result.values),
                subtree_ranges=len(subtree_ranges),
                key_ranges=len(result.ranges),
                ranges_merged=merged_away,
            )
        return result
