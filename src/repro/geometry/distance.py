"""Distance kernels used by the pruning lemmas.

All functions return exact Euclidean minimum distances.  Exactness is a
correctness requirement, not a nicety: every lemma in the paper prunes a
candidate when some *lower bound* on the similarity distance exceeds the
threshold, so a kernel that over-estimated a minimum distance would turn
pruning into answer loss.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from repro.geometry.mbr import MBR
from repro.geometry.point import Point

_PointLike = Tuple[float, float]


def point_distance(a: _PointLike, b: _PointLike) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def point_segment_distance(p: _PointLike, a: _PointLike, b: _PointLike) -> float:
    """Minimum distance from point ``p`` to segment ``a-b``."""
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    px, py = p[0], p[1]
    dx, dy = bx - ax, by - ay
    seg_sq = dx * dx + dy * dy
    if seg_sq == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_sq
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _orient(a: _PointLike, b: _PointLike, c: _PointLike) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a: _PointLike, b: _PointLike, c: _PointLike) -> bool:
    """True if collinear point ``c`` lies on segment ``a-b``."""
    return (
        min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    )


def segments_intersect(
    a: _PointLike, b: _PointLike, c: _PointLike, d: _PointLike
) -> bool:
    """True if closed segments ``a-b`` and ``c-d`` share a point."""
    d1 = _orient(c, d, a)
    d2 = _orient(c, d, b)
    d3 = _orient(a, b, c)
    d4 = _orient(a, b, d)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0:
        return True
    if d1 == 0 and _on_segment(c, d, a):
        return True
    if d2 == 0 and _on_segment(c, d, b):
        return True
    if d3 == 0 and _on_segment(a, b, c):
        return True
    if d4 == 0 and _on_segment(a, b, d):
        return True
    return False


def segment_distance(
    a: _PointLike, b: _PointLike, c: _PointLike, d: _PointLike
) -> float:
    """Exact minimum distance between segments ``a-b`` and ``c-d``.

    Zero when they intersect; otherwise the minimum endpoint-to-segment
    distance (the minimum of two disjoint segments is always attained at
    an endpoint of one of them).
    """
    if segments_intersect(a, b, c, d):
        return 0.0
    return min(
        point_segment_distance(a, c, d),
        point_segment_distance(b, c, d),
        point_segment_distance(c, a, b),
        point_segment_distance(d, a, b),
    )


def point_rect_distance(p: _PointLike, rect: MBR) -> float:
    """Minimum distance from ``p`` to an axis-aligned rectangle."""
    return rect.distance_to_point(p[0], p[1])


def segment_rect_distance(a: _PointLike, b: _PointLike, rect: MBR) -> float:
    """Exact minimum distance from segment ``a-b`` to rectangle ``rect``.

    Zero when the segment touches the (solid) rectangle; otherwise the
    minimum over the rectangle's four edges.
    """
    if rect.contains_point(a[0], a[1]) or rect.contains_point(b[0], b[1]):
        return 0.0
    best = math.inf
    for e0, e1 in rect.edges():
        best = min(best, segment_distance(a, b, e0, e1))
        if best == 0.0:
            return 0.0
    return best


def rect_rect_distance(r1: MBR, r2: MBR) -> float:
    """Minimum distance between two axis-aligned rectangles."""
    return r1.distance_to_rect(r2)


def point_polyline_distance(
    p: _PointLike, polyline: Sequence[_PointLike], vertices_only: bool = True
) -> float:
    """Minimum distance from ``p`` to a polyline.

    With ``vertices_only`` (the default) only the vertices are
    considered, matching the discrete similarity measures — in Lemma 5,
    ``d(t, T)`` is the minimum over *points* of ``T``.  Pass ``False``
    to measure against the continuous polyline instead.
    """
    if not polyline:
        raise ValueError("empty polyline")
    if vertices_only or len(polyline) == 1:
        return min(point_distance(p, q) for q in polyline)
    best = math.inf
    for i in range(len(polyline) - 1):
        best = min(best, point_segment_distance(p, polyline[i], polyline[i + 1]))
        if best == 0.0:
            return 0.0
    return best


def rect_polyline_distance(
    rect: MBR, polyline: Sequence[_PointLike], vertices_only: bool = True
) -> float:
    """Minimum distance from a rectangle to a polyline.

    Used by Lemma 10: ``d(sq, Q)`` is the smallest distance any point of
    the sub-quad ``sq`` can have to the query's point set.
    """
    if not polyline:
        raise ValueError("empty polyline")
    if vertices_only or len(polyline) == 1:
        return min(rect.distance_to_point(q[0], q[1]) for q in polyline)
    best = math.inf
    for i in range(len(polyline) - 1):
        best = min(best, segment_rect_distance(polyline[i], polyline[i + 1], rect))
        if best == 0.0:
            return 0.0
    return best


def edge_min_rect_distance(edge: Tuple[Point, Point], rect: MBR) -> float:
    """``min_{p in edge} d(p, rect)`` — building block of minDistEE.

    Definition 10 takes, for each edge of the query MBR (each of which is
    guaranteed to contain at least one trajectory point), the smallest
    distance a point on that edge can have to the enlarged element, and
    then the maximum over the four edges.
    """
    return segment_rect_distance(edge[0], edge[1], rect)

