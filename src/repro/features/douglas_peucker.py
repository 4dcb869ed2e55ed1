"""Douglas-Peucker polyline simplification.

Iterative (explicit-stack) formulation of the classic algorithm: keep
the endpoints, find the interior point farthest from the chord, and
recurse on both halves while that distance exceeds ``theta``.  The
output here is the *indexes* of the representative points — the storage
schema (Table I) keeps ``dp-points`` as a list of integers into the raw
point array.

The kernel reads two float columns and computes each distance with the
expressions of :func:`repro.geometry.distance.point_segment_distance`
written out inline (the same ``math.hypot`` and the same clamp of the
projection to ``[0, 1]``), so it keeps the same points to the last bit.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.geometry.trajectory import columns_of

PointTuple = Tuple[float, float]


def douglas_peucker_mask(
    xs: Sequence[float], ys: Sequence[float], theta: float
) -> List[bool]:
    """Boolean keep-mask over the points ``zip(xs, ys)`` for tolerance
    ``theta``.

    The first and last points are always kept.  ``theta`` must be
    non-negative; ``theta == 0`` keeps every point not exactly collinear
    with its chord.  Of equally distant points the first is split at.
    """
    if theta < 0:
        raise ValueError(f"DP tolerance must be non-negative, got {theta}")
    n = len(xs)
    if n == 0:
        raise ValueError("Douglas-Peucker of zero points")
    keep = [False] * n
    keep[0] = keep[n - 1] = True
    if n <= 2:
        return keep
    hypot = math.hypot
    stack: List[Tuple[int, int]] = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        ax, ay = xs[lo], ys[lo]
        dx, dy = xs[hi] - ax, ys[hi] - ay
        seg_sq = dx * dx + dy * dy
        worst = -1.0
        worst_at = -1
        if seg_sq == 0.0:
            for i in range(lo + 1, hi):
                d = hypot(xs[i] - ax, ys[i] - ay)
                if d > worst:
                    worst = d
                    worst_at = i
        else:
            for i in range(lo + 1, hi):
                px = xs[i]
                py = ys[i]
                t = ((px - ax) * dx + (py - ay) * dy) / seg_sq
                # max(0.0, min(1.0, t)), spelt out
                if t < 1.0:
                    if not t > 0.0:
                        t = 0.0
                else:
                    t = 1.0
                d = hypot(px - (ax + t * dx), py - (ay + t * dy))
                if d > worst:
                    worst = d
                    worst_at = i
        if worst > theta:
            keep[worst_at] = True
            stack.append((lo, worst_at))
            stack.append((worst_at, hi))
    return keep


def douglas_peucker(points, theta: float) -> List[int]:
    """Indexes of the representative points for tolerance ``theta``;
    ``points`` is a point sequence or anything carrying ``columns``
    (:func:`~repro.geometry.trajectory.columns_of`)."""
    mask = douglas_peucker_mask(*columns_of(points), theta)
    return [i for i, kept in enumerate(mask) if kept]
