"""Hausdorff distance between point sets (Definition 12).

``D_H(Q, T) = max( max_i min_j d(q_i, t_j), max_j min_i d(t_j, q_i) )``.

Hausdorff satisfies Lemma 5 (every point's nearest-neighbour distance
lower-bounds it) but **not** Lemma 12: the matching is unordered, so the
start point of ``Q`` may legitimately match an interior point of ``T``.
Query processing must therefore skip the start/end filter under this
measure (Section VII-A), which ``supports_start_end_filter = False``
encodes.

The directed kernel works entirely on squared distances (one ``sqrt``
at the very end) and vectorises the inner nearest-neighbour minimum
over pre-extracted coordinate arrays; the outer loop keeps the
early-abandon exit.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.measures.base import Measure, PointSeq, register_measure
from repro.measures.frechet import _relaxed_sq

#: below this many candidate points the vectorisation overhead beats
#: the plain loop; both branches compute identical floats
_VECTOR_MIN_POINTS = 12


def _coords(points: PointSeq) -> Tuple["np.ndarray", "np.ndarray"]:
    n = len(points)
    xs = np.fromiter((p[0] for p in points), dtype=float, count=n)
    ys = np.fromiter((p[1] for p in points), dtype=float, count=n)
    return xs, ys


def _directed_sq(a: PointSeq, b: PointSeq, abandon_sq: float = math.inf) -> float:
    """``max_{p in a} min_{q in b} d(p, q)^2`` with early abandon.

    Returns a value ``> abandon_sq`` as soon as the directed distance is
    known to exceed it.
    """
    worst = 0.0
    if len(b) >= _VECTOR_MIN_POINTS:
        bx, by = _coords(b)
        for px, py in a:
            dx = bx - px
            dy = by - py
            best = float(np.min(dx * dx + dy * dy))
            if best > worst:
                worst = best
                if worst > abandon_sq:
                    return worst
        return worst
    for p in a:
        px, py = p
        best = math.inf
        for q in b:
            dx = px - q[0]
            dy = py - q[1]
            d = dx * dx + dy * dy
            if d < best:
                best = d
                if best <= worst:
                    break  # cannot raise the running max
        if best > worst:
            worst = best
            if worst > abandon_sq:
                return worst
    return worst


def hausdorff(a: PointSeq, b: PointSeq) -> float:
    """Exact symmetric Hausdorff distance."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("Hausdorff distance of an empty sequence")
    forward = _directed_sq(a, b)
    backward = _directed_sq(b, a)
    return math.sqrt(max(forward, backward))


def _hausdorff_within_value(
    a: PointSeq, b: PointSeq, eps: float
) -> Optional[float]:
    """Squared symmetric distance when within the relaxed bound, else
    ``None`` (the shared early-abandoning kernel)."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("Hausdorff distance of an empty sequence")
    abandon_sq = _relaxed_sq(eps)
    forward = _directed_sq(a, b, abandon_sq)
    if forward > abandon_sq:
        return None
    backward = _directed_sq(b, a, abandon_sq)
    if backward > abandon_sq:
        return None
    return max(forward, backward)


def hausdorff_within(a: PointSeq, b: PointSeq, eps: float) -> bool:
    """Early-abandoning decision ``D_H(a, b) <= eps``.

    The abandon threshold is slightly relaxed so the final comparison
    can be made in the sqrt domain, keeping the decision bit-consistent
    with :func:`hausdorff` even when ``eps`` equals the exact distance.
    """
    worst = _hausdorff_within_value(a, b, eps)
    return worst is not None and math.sqrt(worst) <= eps


@register_measure
class Hausdorff(Measure):
    """Symmetric Hausdorff distance; Lemma 5 yes, Lemma 12 no."""

    name = "hausdorff"
    supports_start_end_filter = False

    def distance(self, a: PointSeq, b: PointSeq) -> float:
        return hausdorff(a, b)

    def within(self, a: PointSeq, b: PointSeq, eps: float) -> bool:
        return hausdorff_within(a, b, eps)

    def distance_within(
        self, a: PointSeq, b: PointSeq, eps: float
    ) -> Optional[float]:
        """One fused pass: the decision and the exact answer value.

        When neither directed pass abandons, both squared maxima are
        exact and the symmetric distance comes out of the same pass.
        """
        if eps == math.inf:
            return hausdorff(a, b)
        worst = _hausdorff_within_value(a, b, eps)
        if worst is None:
            return None
        value = math.sqrt(worst)
        return value if value <= eps else None
