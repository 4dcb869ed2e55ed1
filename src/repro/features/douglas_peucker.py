"""Douglas-Peucker polyline simplification.

Iterative (explicit-stack) formulation of the classic algorithm: keep
the endpoints, find the interior point farthest from the chord, and
recurse on both halves while that distance exceeds ``theta``.  The
output here is the *indexes* of the representative points — the storage
schema (Table I) keeps ``dp-points`` as a list of integers into the raw
point array.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.geometry.distance import point_segment_distance

PointTuple = Tuple[float, float]


def douglas_peucker_mask(
    points: Sequence[PointTuple], theta: float
) -> List[bool]:
    """Boolean keep-mask over ``points`` for tolerance ``theta``.

    The first and last points are always kept.  ``theta`` must be
    non-negative; ``theta == 0`` keeps every point not exactly collinear
    with its chord.
    """
    if theta < 0:
        raise ValueError(f"DP tolerance must be non-negative, got {theta}")
    n = len(points)
    if n == 0:
        raise ValueError("Douglas-Peucker of zero points")
    keep = [False] * n
    keep[0] = keep[n - 1] = True
    if n <= 2:
        return keep
    stack: List[Tuple[int, int]] = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        a, b = points[lo], points[hi]
        worst = -1.0
        worst_at = -1
        for i in range(lo + 1, hi):
            d = point_segment_distance(points[i], a, b)
            if d > worst:
                worst = d
                worst_at = i
        if worst > theta:
            keep[worst_at] = True
            stack.append((lo, worst_at))
            stack.append((worst_at, hi))
    return keep


def douglas_peucker(
    points: Sequence[PointTuple], theta: float
) -> List[int]:
    """Indexes of the representative points for tolerance ``theta``."""
    mask = douglas_peucker_mask(points, theta)
    return [i for i, kept in enumerate(mask) if kept]
