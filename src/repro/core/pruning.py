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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import QueryError
from repro.geometry.distance import (
    min_dist_edges_to_rect,
    min_dist_edges_to_rects,
    rect_polyline_distance,
)
from repro.geometry.mbr import MBR
from repro.geometry.trajectory import Trajectory
from repro.index.position_code import CODE_QUADS, codes_for_element
from repro.index.quadrant import ROOT, Element, smallest_enlarged_element
from repro.index.ranges import IndexRange, merge_ranges, merge_values_to_ranges
from repro.index.xzstar import XZStarIndex
from repro.obs.tracing import NULL_TRACER


def min_points_rect_distance(
    xs: "np.ndarray", ys: "np.ndarray", rect: MBR
) -> float:
    """``min_p d(p, rect)`` over a vectorised point set.

    The Lemma 10 kernel: the smallest distance any query point has to a
    sub-quad.  Vectorised because the planner evaluates it four times
    per visited element.
    """
    dx = np.maximum(np.maximum(rect.min_x - xs, xs - rect.max_x), 0.0)
    dy = np.maximum(np.maximum(rect.min_y - ys, ys - rect.max_y), 0.0)
    return float(np.sqrt(np.min(dx * dx + dy * dy)))


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

    @classmethod
    def empty(cls, max_resolution: int) -> "PruningResult":
        """The plan of a query that was not index-pruned (full-scan
        fallbacks for measures without the Lemma 5 bound)."""
        return cls(
            values=[], ranges=[], min_resolution=0, max_resolution=max_resolution
        )

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
        if eps < 0:
            raise QueryError(f"threshold must be non-negative, got {eps}")
        with tracer.span("prune", eps=eps) as span:
            cache = self.plan_cache
            cache_key = None
            if cache is not None:
                band = self.resolution_band(query, eps)
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

        ext_world = query.mbr.expanded(eps)
        query_mbr = query.mbr
        xs = np.fromiter((p[0] for p in query.points), dtype=float)
        ys = np.fromiter((p[1] for p in query.points), dtype=float)
        bounds = self.index.bounds
        world_scale = min(bounds.width, bounds.height)
        collapse_cell = self.collapse_scale * eps

        subtree_ranges: List[IndexRange] = []
        stack: List[Element] = [ROOT]
        with tracer.span("prune.walk") as walk_span:
            while stack:
                element = stack.pop()
                result.elements_visited += 1
                ee_world = self.index.element_world_mbr(element)
                # Lemma 8: the enlarged element must meet the extended MBR.
                if not ee_world.intersects(ext_world):
                    result.elements_pruned_distance += 1
                    continue
                # Lemma 9: minDistEE is monotone down the tree.
                if min_dist_edges_to_rect(query_mbr, ee_world) > eps:
                    result.elements_pruned_distance += 1
                    continue
                if result.elements_visited > self.max_planned_elements:
                    # Safety valve: accept the remaining subtree wholesale.
                    # A superset of index spaces is sound — extra rows are
                    # removed by local filtering and refinement.
                    result.truncated = True
                    if element.level >= 1:
                        subtree_ranges.append(
                            IndexRange(*self.index.subtree_span(element))
                        )
                    continue
                if (
                    element.level >= max(min_r, 1)
                    and element.level < max_r
                    and element.cell_width * world_scale <= collapse_cell
                ):
                    subtree_ranges.append(
                        IndexRange(*self.index.subtree_span(element))
                    )
                    result.collapsed_subtrees += 1
                    continue
                if element.level >= min_r:
                    self._select_codes(element, xs, ys, query_mbr, eps, result)
                if element.level < max_r:
                    stack.extend(element.children())
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

    # ------------------------------------------------------------------
    def _select_codes(
        self,
        element: Element,
        xs: "np.ndarray",
        ys: "np.ndarray",
        query_mbr: MBR,
        eps: float,
        result: PruningResult,
    ) -> None:
        """Lemmas 10-11 on one candidate enlarged element."""
        if not self.use_position_codes:
            for code in codes_for_element(element, self.index.max_resolution):
                result.values.append(self.index.value(element, code))
            return
        quad_rects = self.index.quad_world_rects(element)
        far_quads = {
            quad
            for quad, rect in quad_rects.items()
            if min_points_rect_distance(xs, ys, rect) > eps
        }
        for code in codes_for_element(element, self.index.max_resolution):
            quads = CODE_QUADS[code]
            if quads & far_quads:
                result.codes_pruned_far_quad += 1
                continue
            rects = [quad_rects[q] for q in quads]
            if min_dist_edges_to_rects(query_mbr, rects) > eps:
                result.codes_pruned_min_dist += 1
                continue
            result.values.append(self.index.value(element, code))
