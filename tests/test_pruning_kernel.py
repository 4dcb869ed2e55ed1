"""Global pruning (Lemmas 8-11): soundness, and the plan against an oracle.

Two properties, neither of which the random-walk samples in
``test_core_pruning.py`` pin down:

* **Soundness.**  The planner never drops the index space of a
  trajectory within ``eps`` of the query — on the cases where rounding
  is most likely to bite: ``eps = 0``, translations by up to ``eps``,
  points on the space boundary, maximum-resolution elements (code 10),
  anisotropic bounds and a truncated walk.  "Within ``eps``" is the
  Hausdorff distance, the weakest of the indexed measures, so the
  property covers Fréchet and DTW as well.
* **Same plan.**  The planner's loops as they were before the per-element
  kernel (``core/pruning.PruningKernel``) live on below, verbatim, as the
  oracle: ``values`` (order included), ``ranges`` and every
  ``PruningResult`` counter must be *equal*, for both
  ``use_position_codes`` settings, and so must the ``(minDistIS, value)``
  pairs the planner keeps per element and the ``(bound, value)`` pairs
  top-k queues (``minDistIS`` max'ed with the code's Lemma 10 quad
  distances), which must also be ``<=`` every measure's distance to a
  trajectory stored under the code.  The benchmark's brute-force check
  catches a lost answer; only this file catches a changed plan.
"""

import math
import random
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import TraSS, TraSSConfig
from repro.core.pruning import ROOT_CELL, GlobalPruner, PruningKernel, PruningResult
from repro.exceptions import QueryError
from repro.geometry.mbr import MBR
from repro.geometry.trajectory import Trajectory
from repro.index.bounds import SpaceBounds
from repro.index.position_code import CODE_QUADS, codes_for_element, quad_rects
from repro.index.quadrant import ROOT, Element
from repro.index.ranges import IndexRange, merge_ranges, merge_values_to_ranges
from repro.index.xzstar import XZStarIndex
from repro.measures import get_measure, hausdorff
from repro.obs.tracing import NULL_TRACER

UNIT = SpaceBounds(0.0, 0.0, 1.0, 1.0)
EARTH = SpaceBounds.whole_earth()
WIDE = SpaceBounds(-3.0, 10.0, 5.0, 12.0)  # 4:1 anisotropic extent
BOUNDS = (UNIT, EARTH, WIDE)
MEASURES = [get_measure(name) for name in ("frechet", "dtw", "hausdorff")]


# ----------------------------------------------------------------------
# The reference: the minDist helpers of geometry/distance.py, as they were.
# ----------------------------------------------------------------------
def _interval_gap(lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    """Gap between two closed intervals (0 when they overlap)."""
    return max(0.0, lo2 - hi1, lo1 - hi2)


def _axis_edge_rect_distance(
    x_lo: float, x_hi: float, y_lo: float, y_hi: float, rect: MBR
) -> float:
    """Exact min distance from an axis-aligned segment (a degenerate
    rectangle) to ``rect`` — O(1) interval arithmetic."""
    dx = _interval_gap(x_lo, x_hi, rect.min_x, rect.max_x)
    dy = _interval_gap(y_lo, y_hi, rect.min_y, rect.max_y)
    if dx == 0.0:
        return dy
    if dy == 0.0:
        return dx
    return math.hypot(dx, dy)


def mbr_edge_rect_distances(mbr: MBR, rect: MBR):
    """Min distance from each MBR edge (bottom, right, top, left) to
    ``rect``.  Everything is axis-aligned, so each edge is O(1)."""
    return (
        _axis_edge_rect_distance(mbr.min_x, mbr.max_x, mbr.min_y, mbr.min_y, rect),
        _axis_edge_rect_distance(mbr.max_x, mbr.max_x, mbr.min_y, mbr.max_y, rect),
        _axis_edge_rect_distance(mbr.min_x, mbr.max_x, mbr.max_y, mbr.max_y, rect),
        _axis_edge_rect_distance(mbr.min_x, mbr.min_x, mbr.min_y, mbr.max_y, rect),
    )


def min_dist_edges_to_rect(mbr: MBR, rect: MBR) -> float:
    """``minDistEE`` (Definition 10): max over MBR edges of the edge min.

    This is a *sound* lower bound on ``f(Q, T)`` for every ``T`` inside
    ``rect``: each edge of ``Q``'s MBR holds at least one point of ``Q``,
    and that point is at least ``min_{p in edge} d(p, rect)`` away from
    everything inside ``rect``.
    """
    return max(mbr_edge_rect_distances(mbr, rect))


def min_dist_edges_to_rects(mbr: MBR, rects) -> float:
    """``minDistIS`` (Definition 11) against a union of rectangles.

    An XZ* index space is a union of sub-quads; the distance from an edge
    to the union is the minimum over members, and the bound is again the
    maximum over the four MBR edges.
    """
    if not rects:
        return math.inf
    per_edge = [math.inf, math.inf, math.inf, math.inf]
    for rect in rects:
        for i, dist in enumerate(mbr_edge_rect_distances(mbr, rect)):
            if dist < per_edge[i]:
                per_edge[i] = dist
    return max(per_edge)


def min_points_rect_distance(xs, ys, rect: MBR) -> float:
    """``min_p d(p, rect)`` over a vectorised point set.

    The Lemma 10 kernel: the smallest distance any query point has to a
    sub-quad.  Vectorised because the planner evaluates it four times
    per visited element.
    """
    dx = np.maximum(np.maximum(rect.min_x - xs, xs - rect.max_x), 0.0)
    dy = np.maximum(np.maximum(rect.min_y - ys, ys - rect.max_y), 0.0)
    return float(np.sqrt(np.min(dx * dx + dy * dy)))


def quad_world_rects(index: XZStarIndex, element: Element) -> Dict[str, MBR]:
    """World rectangles of the element's four sub-quads."""
    return {q: index._denorm(r) for q, r in quad_rects(element).items()}


# ----------------------------------------------------------------------
# The reference planner: _prune_uncached / _select_codes, as they were.
# ----------------------------------------------------------------------
def reference_prune(self: GlobalPruner, query, eps, tracer=NULL_TRACER):
    min_r, max_r = self.resolution_band(query, eps)
    result = PruningResult(
        values=[], ranges=[], min_resolution=min_r, max_resolution=max_r
    )
    if min_r > max_r:
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
    with tracer.span("prune.walk"):
        while stack:
            element = stack.pop()
            result.elements_visited += 1
            ee_world = self.index.element_world_mbr(element)
            if not ee_world.intersects(ext_world):
                result.elements_pruned_distance += 1
                continue
            if min_dist_edges_to_rect(query_mbr, ee_world) > eps:
                result.elements_pruned_distance += 1
                continue
            if result.elements_visited > self.max_planned_elements:
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
                reference_select_codes(self, element, xs, ys, query_mbr, eps, result)
            if element.level < max_r:
                stack.extend(element.children())

    gap = self.range_merge_gap
    value_ranges = merge_values_to_ranges(result.values, gap)
    result.ranges = merge_ranges(value_ranges + subtree_ranges)
    return result


def reference_select_codes(self, element, xs, ys, query_mbr, eps, result):
    """Lemmas 10-11 on one candidate enlarged element."""
    if not self.use_position_codes:
        for code in codes_for_element(element, self.index.max_resolution):
            result.values.append(self.index.value(element, code))
        return
    quad_rects = quad_world_rects(self.index, element)
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


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _world(bounds: SpaceBounds, u: float, v: float):
    """A unit-square point in world coordinates, kept inside ``bounds``."""
    x = min(max(bounds.min_x + u * bounds.width, bounds.min_x), bounds.max_x)
    y = min(max(bounds.min_y + v * bounds.height, bounds.min_y), bounds.max_y)
    return x, y


#: unit coordinates, weighted toward the space boundary and cell edges
_unit = st.one_of(
    st.sampled_from([0.0, 1.0, math.nextafter(1.0, 0.0)]),
    st.integers(0, 16).map(lambda k: k / 16),
    st.floats(0.0, 1.0),
)


@st.composite
def planning_cases(draw, max_resolutions=(3, 4, 8)):
    """``(index, query, eps)`` on one of the three extents."""
    bounds = draw(st.sampled_from(BOUNDS))
    resolution = draw(st.sampled_from(max_resolutions))
    scale = min(bounds.width, bounds.height)
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        # A compact walk: the shape the benchmark's queries have.
        u, v = draw(_unit), draw(_unit)
        step = draw(st.sampled_from([0.0, 0.001, 0.01, 0.05]))
        rng = random.Random(draw(st.integers(0, 2**16)))
        unit_points = []
        for _ in range(n):
            unit_points.append((u, v))
            u = min(1.0, max(0.0, u + rng.uniform(-step, step)))
            v = min(1.0, max(0.0, v + rng.uniform(-step, step)))
    else:
        unit_points = [(draw(_unit), draw(_unit)) for _ in range(n)]
    points = [_world(bounds, u, v) for u, v in unit_points]
    eps = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from([1 / 256, 1 / 64, 0.001, 0.01]).map(lambda f: f * scale),
            st.floats(0.0, 0.1).map(lambda f: f * scale),
        )
    )
    return XZStarIndex(resolution, bounds), Trajectory("q", points), eps


def _covered(plan: PruningResult, value: int) -> bool:
    return any(r.contains(value) for r in plan.ranges)


# ----------------------------------------------------------------------
# (a) Soundness
# ----------------------------------------------------------------------
@st.composite
def near_trajectories(draw, query: Trajectory, eps: float, bounds: SpaceBounds):
    """``query`` translated by at most ``eps``, or each point moved by at
    most ``eps``, clipped to the space."""
    if draw(st.booleans()):
        # Along an axis by the full eps lands points exactly eps from the
        # query: the case a bound that is too tight would drop.
        radius = eps * draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
        theta = draw(
            st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
            | st.floats(0.0, 2 * math.pi)
        )
        moves = [(radius * math.cos(theta), radius * math.sin(theta))] * len(query)
    else:
        moves = []
        for _ in range(len(query)):
            radius = eps * draw(st.floats(0.0, 1.0))
            theta = draw(st.floats(0.0, 2 * math.pi))
            moves.append((radius * math.cos(theta), radius * math.sin(theta)))
    points = [
        (
            min(max(x + dx, bounds.min_x), bounds.max_x),
            min(max(y + dy, bounds.min_y), bounds.max_y),
        )
        for (x, y), (dx, dy) in zip(query.points, moves)
    ]
    return Trajectory("t", points)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    case=planning_cases(),
    budget=st.sampled_from([8192, 24, 6]),
    position_codes=st.booleans(),
    data=st.data(),
)
def test_no_trajectory_within_eps_is_dropped(case, budget, position_codes, data):
    index, base, eps = case
    pruner = GlobalPruner(
        index, max_planned_elements=budget, use_position_codes=position_codes
    )
    plan = pruner.prune(base, eps)
    assert _covered(plan, index.index(base).value), "own index space dropped"
    near = data.draw(near_trajectories(base, eps, index.bounds))
    if hausdorff(base.points, near.points) <= eps:
        # Both roles: the grid-aligned base as the query, and as the
        # stored trajectory whose element edges its points sit on.
        for query, stored in ((base, near), (near, base)):
            plan = pruner.prune(query, eps)
            placed = index.index(stored)
            assert _covered(plan, placed.value), (placed, plan.truncated)


def test_translation_by_exactly_eps_is_kept():
    """Grid-aligned shapes moved by exactly ``eps`` along an axis: each
    point sits exactly ``eps`` from its twin and from the element edges
    of the other, so Lemmas 8-11 all meet their bound with equality —
    where a bound too tight by any margin drops the trajectory."""
    shapes = [
        [(0.0, 0.0)],
        [(0.0, 0.0), (1 / 16, 0.0)],
        [(0.0, 0.0), (0.0, 1 / 16)],
        [(0.0, 0.0), (1 / 16, 0.0), (1 / 16, 1 / 32)],
    ]
    corners = [(0.0, 0.0), (0.5, 0.25), (0.75, 0.75), (15 / 16, 15 / 16)]
    directions = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for bounds in BOUNDS:
        scale = min(bounds.width, bounds.height)
        for resolution in (4, 8):
            index = XZStarIndex(resolution, bounds)
            pruners = [
                GlobalPruner(index, use_position_codes=codes)
                for codes in (True, False)
            ]
            for shape in shapes:
                for cu, cv in corners:
                    base = Trajectory(
                        "b", [_world(bounds, cu + u, cv + v) for u, v in shape]
                    )
                    for eps in (scale / 64, scale / 256):
                        for dx, dy in directions:
                            moved = Trajectory(
                                "m",
                                [
                                    _world_clamped(bounds, x + dx * eps, y + dy * eps)
                                    for x, y in base.points
                                ],
                            )
                            if hausdorff(base.points, moved.points) > eps:
                                continue
                            for query, stored in ((base, moved), (moved, base)):
                                value = index.index(stored).value
                                for pruner in pruners:
                                    plan = pruner.prune(query, eps)
                                    assert _covered(plan, value), (
                                        bounds, resolution, shape, (cu, cv),
                                        eps, (dx, dy), query is base,
                                    )


def _world_clamped(bounds: SpaceBounds, x: float, y: float):
    return (
        min(max(x, bounds.min_x), bounds.max_x),
        min(max(y, bounds.min_y), bounds.max_y),
    )


def test_max_resolution_codes_survive():
    """Code 10 (one sub-quad) exists only at the maximum resolution: a
    stationary query there must keep its own code at ``eps = 0``."""
    for bounds in BOUNDS:
        for resolution in (3, 4):
            index = XZStarIndex(resolution, bounds)
            for u, v in [(0.0, 0.0), (1.0, 1.0), (0.3, 0.7), (1.0, 0.0)]:
                query = Trajectory("q", [_world(bounds, u, v)] * 3)
                placed = index.index(query)
                assert placed.element.level == resolution
                assert placed.position_code == 10
                plan = GlobalPruner(index).prune(query, 0.0)
                assert _covered(plan, placed.value)


# ----------------------------------------------------------------------
# (b) The planner against the reference
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    case=planning_cases(max_resolutions=(3, 4, 8, 12)),
    budget=st.sampled_from([8192, 40]),
    gap=st.sampled_from([0, 3]),
)
def test_plan_equals_reference(case, budget, gap):
    index, query, eps = case
    for position_codes in (True, False):
        pruner = GlobalPruner(
            index,
            max_planned_elements=budget,
            use_position_codes=position_codes,
            range_merge_gap=gap,
        )
        assert pruner.prune(query, eps) == reference_prune(pruner, query, eps)


def test_plan_equals_reference_on_benchmark_shapes():
    """Queries shaped like the benchmark's: T-Drive-like walks over the
    Beijing extent at resolution 16, ``eps`` around 0.01 degrees."""
    from repro.data.generators import tdrive_like

    bounds = SpaceBounds(115.8, 39.4, 117.2, 40.6)
    index = XZStarIndex(16, bounds)
    for position_codes in (True, False):
        pruner = GlobalPruner(index, use_position_codes=position_codes)
        for query in tdrive_like(12, seed=5):
            for eps in (0.0, 0.002, 0.01, 0.05):
                got = pruner.prune(query, eps)
                assert got == reference_prune(pruner, query, eps), (
                    query.tid,
                    eps,
                )


def test_plan_cache_hit_equals_reference():
    index = XZStarIndex(10, UNIT)
    pruner = GlobalPruner(index, plan_cache_size=8)
    query = Trajectory("q", [(0.3, 0.3), (0.31, 0.33), (0.35, 0.32)])
    want = reference_prune(pruner, query, 0.01)
    assert pruner.prune(query, 0.01) == want  # miss
    assert pruner.prune(query, 0.01) == want  # hit


# ----------------------------------------------------------------------
# The kernel, element by element, against the reference
# ----------------------------------------------------------------------
def reference_topk_codes(index, query, element, threshold):
    """The per-code loop of top-k's ``expand_element``, as it was: the
    ``(minDistIS, value)`` pairs it pushed, in push order."""
    query_mbr = query.mbr
    qxs = np.fromiter((p[0] for p in query.points), dtype=float)
    qys = np.fromiter((p[1] for p in query.points), dtype=float)
    pushed = []
    quad_rects = quad_world_rects(index, element)
    far_quads = {
        quad
        for quad, rect in quad_rects.items()
        if min_points_rect_distance(qxs, qys, rect) > threshold
    }
    for code in codes_for_element(element, index.max_resolution):
        quads = CODE_QUADS[code]
        if quads & far_quads:
            continue
        rects = [quad_rects[q] for q in quads]
        dist = min_dist_edges_to_rects(query_mbr, rects)
        if dist > threshold:
            continue
        value = index.value(element, code)
        pushed.append((dist, value))
    return pushed


def cell_of(index: XZStarIndex, element: Element):
    prefix = sum(
        digit * index.n_index_spaces(depth)
        for depth, digit in enumerate(element.sequence, start=1)
    )
    return element.level, element.ix, element.iy, prefix


@st.composite
def elements_near(draw, index: XZStarIndex, query: Trajectory):
    """An element at any level whose cell is within two of the cell
    holding the query's lower-left corner (clamped to the grid)."""
    level = draw(st.integers(0, index.max_resolution))
    side = 1 << level
    corner = index.bounds.normalize(query.mbr.min_x, query.mbr.min_y)
    ix, iy = (min(int(c * side), side - 1) for c in corner)
    ix = min(max(ix + draw(st.integers(-2, 2)), 0), side - 1)
    iy = min(max(iy + draw(st.integers(-2, 2)), 0), side - 1)
    return Element(level, ix, iy)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=planning_cases(max_resolutions=(3, 4, 8, 16)), data=st.data())
def test_topk_pairs_equal_reference(case, data):
    """The ``(minDistIS, value)`` pairs top-k pushes, the element's
    ``minDistEE`` priority and rectangle, and the cell arithmetic."""
    index, query, eps = case
    kernel = PruningKernel(index, query)
    for _ in range(4):
        element = data.draw(elements_near(index, query))
        cell = cell_of(index, element)
        world = index.element_world_mbr(element)
        lines = xs, ys = kernel.lines(cell)
        assert (xs[0], ys[0], xs[2], ys[2]) == (
            world.min_x, world.min_y, world.max_x, world.max_y
        )
        quads = quad_world_rects(index, element)
        assert (xs[1], ys[1]) == (quads["d"].min_x, quads["d"].min_y)
        assert kernel.min_dist_ee(lines) == min_dist_edges_to_rect(query.mbr, world)
        # Thresholds exactly at a Lemma 10 or Lemma 11 bound: the ties.
        qxs = np.fromiter((p[0] for p in query.points), dtype=float)
        qys = np.fromiter((p[1] for p in query.points), dtype=float)
        ties = {min_points_rect_distance(qxs, qys, r) for r in quads.values()}
        ties.update(
            d for d, _ in reference_topk_codes(index, query, element, math.inf)
        )
        for threshold in (eps, 0.0, math.inf, *ties):
            pairs, _, _ = kernel.index_spaces(cell, lines, threshold)
            assert pairs == reference_topk_codes(index, query, element, threshold)
        if element.level >= 1:
            assert kernel.subtree_span(cell) == index.subtree_span(element)
        if element.level < index.max_resolution:
            assert kernel.children(cell) == [
                cell_of(index, child) for child in element.children()
            ]


def reference_ranked_codes(index, query, element, threshold):
    """Top-k's unit priority from the per-code ``MBR`` loops: each
    code's ``minDistIS`` max'ed with its quads' Lemma 10 distances
    (``min_points_rect_distance``), kept when ``<= threshold``."""
    qxs = np.fromiter((p[0] for p in query.points), dtype=float)
    qys = np.fromiter((p[1] for p in query.points), dtype=float)
    quad_rects = quad_world_rects(index, element)
    nearest = {
        quad: min_points_rect_distance(qxs, qys, rect)
        for quad, rect in quad_rects.items()
    }
    ranked = []
    for code in codes_for_element(element, index.max_resolution):
        quads = CODE_QUADS[code]
        rects = [quad_rects[q] for q in quads]
        bound = max(
            [min_dist_edges_to_rects(query.mbr, rects)]
            + [nearest[q] for q in quads]
        )
        if bound <= threshold:
            ranked.append((bound, index.value(element, code)))
    return ranked


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=planning_cases(max_resolutions=(3, 4, 8, 16)), data=st.data())
def test_ranked_spaces_equal_reference(case, data):
    """The per-code bound top-k queues units by, ``==`` the reference,
    with thresholds at every tie: each bound, each quad's nearest-point
    distance, and one ulp below each."""
    index, query, eps = case
    kernel = PruningKernel(index, query)
    for _ in range(4):
        element = data.draw(elements_near(index, query))
        cell = cell_of(index, element)
        lines = kernel.lines(cell)
        qxs = np.fromiter((p[0] for p in query.points), dtype=float)
        qys = np.fromiter((p[1] for p in query.points), dtype=float)
        ties = {
            min_points_rect_distance(qxs, qys, rect)
            for rect in quad_world_rects(index, element).values()
        }
        ties.update(
            b for b, _ in reference_ranked_codes(index, query, element, math.inf)
        )
        ties.update([math.nextafter(t, -math.inf) for t in ties if t > 0])
        for threshold in (eps, 0.0, math.inf, *ties):
            ranked = kernel.ranked_spaces(cell, lines, threshold)
            assert ranked == reference_ranked_codes(
                index, query, element, threshold
            )
            # A code survives top-k exactly when it survives the planner.
            planned, _, _ = kernel.index_spaces(cell, lines, threshold)
            assert [v for _, v in ranked] == [v for _, v in planned]


@st.composite
def stored_trajectories(draw, bounds: SpaceBounds):
    """Any trajectory inside ``bounds``: scattered, or a compact walk."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return Trajectory(
            "t", [_world(bounds, draw(_unit), draw(_unit)) for _ in range(n)]
        )
    u, v = draw(_unit), draw(_unit)
    step = draw(st.sampled_from([0.0, 1 / 64, 0.01]))
    points = []
    for _ in range(n):
        points.append(_world(bounds, u, v))
        u = min(1.0, max(0.0, u + draw(st.sampled_from([-step, 0.0, step]))))
        v = min(1.0, max(0.0, v + draw(st.sampled_from([-step, 0.0, step]))))
    return Trajectory("t", points)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=planning_cases(max_resolutions=(3, 4, 8, 16)), data=st.data())
def test_ranked_bound_never_exceeds_any_measure(case, data):
    """Soundness of the unit priority: for a trajectory stored under a
    code, the code's bound is ``<=`` its Fréchet, DTW and Hausdorff
    distance from the query — on grid-aligned shapes moved by exactly
    ``eps`` as well as scattered ones."""
    index, query, eps = case
    if data.draw(st.booleans()):
        stored = data.draw(near_trajectories(query, eps, index.bounds))
    else:
        stored = data.draw(stored_trajectories(index.bounds))
    for q, t in ((query, stored), (stored, query)):
        placed = index.index(t)
        cell = cell_of(index, placed.element)
        kernel = PruningKernel(index, q)
        bounds = {
            value: bound
            for bound, value in kernel.ranked_spaces(
                cell, kernel.lines(cell), math.inf
            )
        }
        bound = bounds[placed.value]
        for measure in MEASURES:
            assert bound <= measure.distance(q.points, t.points), measure


def test_root_cell_values_are_the_tail_block():
    index = XZStarIndex(4, UNIT)
    query = Trajectory("q", [(0.1, 0.1), (0.9, 0.9)])
    kernel = PruningKernel(index, query)
    pairs, far, near = kernel.index_spaces(
        ROOT_CELL, kernel.lines(ROOT_CELL), math.inf
    )
    assert [v for _, v in pairs] == [index.value(ROOT, c) for c in range(1, 10)]
    assert far == near == 0


# ----------------------------------------------------------------------
# Thresholds at the front door
# ----------------------------------------------------------------------
def test_nan_threshold_is_a_query_error():
    pruner = GlobalPruner(XZStarIndex(8, UNIT))
    with pytest.raises(QueryError):
        pruner.prune(Trajectory("q", [(0.1, 0.1)]), float("nan"))


def test_infinite_threshold_answers_everything():
    """``eps = inf`` is legal: the plan covers every index space that
    holds data, and every stored trajectory is an answer."""
    rng = random.Random(21)
    data = [
        Trajectory(f"t{i}", [(rng.random(), rng.random()) for _ in range(4)])
        for i in range(30)
    ]
    engine = TraSS.build(data, TraSSConfig(bounds=UNIT, max_resolution=8, shards=2))
    plan = engine.pruner.prune(data[0], math.inf)
    assert all(_covered(plan, engine.store.index.index(t).value) for t in data)
    result = engine.threshold_search(data[0], math.inf)
    assert set(result.answers) == {t.tid for t in data}


# ----------------------------------------------------------------------
# Moved from test_geometry_distance.py with the helpers they cover.
# ----------------------------------------------------------------------
class TestMinDistEE:
    """Definition 10 semantics: max over MBR edges of the edge minimum."""

    def test_rect_containing_mbr_is_zero(self):
        mbr = MBR(1, 1, 2, 2)
        assert min_dist_edges_to_rect(mbr, MBR(0, 0, 3, 3)) == 0.0

    def test_tiny_centered_rect_is_large(self):
        # A tiny enlarged element centred in a big query MBR: every edge
        # of the MBR is far from it — Lemma 7's "too small" case.
        mbr = MBR(0, 0, 10, 10)
        tiny = MBR(4.9, 4.9, 5.1, 5.1)
        assert min_dist_edges_to_rect(mbr, tiny) == pytest.approx(4.9)

    def test_far_rect(self):
        mbr = MBR(0, 0, 1, 1)
        rect = MBR(5, 0, 6, 1)
        # The binding edge is the MBR's *left* edge: the point that must
        # exist on it is at least 5 away from the rect, so the max over
        # edges — Definition 10 — is 5, not the right edge's 4.
        assert min_dist_edges_to_rect(mbr, rect) == pytest.approx(5.0)

    def test_union_version_uses_nearest_member(self):
        mbr = MBR(0, 0, 1, 1)
        near = MBR(1.5, 0, 2, 1)
        far = MBR(9, 9, 10, 10)
        d_union = min_dist_edges_to_rects(mbr, [near, far])
        d_near = min_dist_edges_to_rect(mbr, near)
        assert d_union == pytest.approx(d_near)

    def test_union_empty_is_inf(self):
        assert min_dist_edges_to_rects(MBR(0, 0, 1, 1), []) == math.inf

    def test_lower_bounds_any_point_pair(self):
        """minDistEE must never exceed the distance between a point on
        an MBR edge and a point inside the rect (soundness)."""
        from repro.geometry.distance import edge_min_rect_distance

        rng = random.Random(3)
        for _ in range(200):
            mbr = MBR.of_points([(rng.random(), rng.random()) for _ in range(2)])
            rect = MBR.of_points(
                [(rng.random() + 2, rng.random()) for _ in range(2)]
            )
            bound = min_dist_edges_to_rect(mbr, rect)
            # Points on each MBR edge vs points in the rect.
            for a, b in mbr.edges():
                t = rng.random()
                px = a.x + (b.x - a.x) * t
                py = a.y + (b.y - a.y) * t
                qx = rng.uniform(rect.min_x, rect.max_x)
                qy = rng.uniform(rect.min_y, rect.max_y)
                # There exists a point on SOME edge at >= bound from the
                # rect; every point in the rect is >= its edge-min away.
                # The max-over-edges bound must stay below the *maximum*
                # edge point distance, so check the defining inequality:
                assert edge_min_rect_distance((a, b), rect) <= math.hypot(
                    px - qx, py - qy
                ) + 1e-9
            assert bound >= 0.0
