"""Discrete Fréchet distance (Definition 2) — the paper's default measure.

One dynamic program over the coupling lattice, run in the
*squared-distance* domain: ``max`` and ``min`` commute with the
monotone map ``x -> x*x``, so the recurrence is unchanged and the one
``sqrt`` happens at the end.

The program visits only the lattice's free space under a ``limit`` on
the squared value.  A cell whose value exceeds the limit is dead: values
along a monotone coupling combine with ``max``, so no coupling through
it ends within the limit.  Each row keeps its live span — first to last
live column — and, because a cell's predecessors are ``(i-1, j)``,
``(i-1, j-1)`` and ``(i, j-1)``, row ``i`` can be live only from the
previous row's first live column to one past its last, and beyond that
only while the cell to its left stays live.  Those are the cells
visited: every cell a coupling within the limit can reach is among
them, so each holds exactly the dense table's value, and a row with no
live cell ends the search.

The limit comes from the question.  Threshold decisions take it from
``eps``, marginally relaxed (:func:`_relaxed_sq`), and compare in the
sqrt domain, which keeps ``within`` bit-consistent with ``distance``.
The exact distance takes it from a greedy coupling
(:func:`~repro.measures.base.greedy_coupling`): its largest squared
distance, also the measure's ``upper_bound``, bounds the optimum from
above, so the optimal coupling survives the clamp, and the band is a
strip around it rather than the whole table whenever the points are
spread wider than the distance.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.measures.base import (
    RELATIVE_SLACK,
    Measure,
    PointSeq,
    coordinates,
    greedy_coupling,
    register_measure,
)

_INF = math.inf
_NAME = "discrete Fréchet"


def _relaxed_sq(eps: float) -> float:
    """A clamping bound slightly above ``eps**2``.

    The relaxation only admits extra lattice paths; the final decision
    is made in the sqrt domain, keeping ``within`` consistent with
    ``distance`` even when ``eps`` equals the exact value.
    """
    if not eps > 0:
        return 0.0
    # ``*`` overflows to inf where float ``**`` raises OverflowError.
    relaxed = eps * (1.0 + RELATIVE_SLACK)
    return relaxed * relaxed


def _greedy_sq(a: PointSeq, b: PointSeq) -> float:
    """An upper bound on the squared discrete Fréchet distance: the
    largest squared distance along the greedy coupling."""
    return max(greedy_coupling(*coordinates(a, _NAME), *coordinates(b, _NAME)))


def _banded_sq(a: PointSeq, b: PointSeq, limit: float) -> Optional[float]:
    """The squared discrete Fréchet distance when it is ``<= limit``,
    else ``None``, visiting only the cells the limit leaves live."""
    ax, ay = coordinates(a, _NAME)
    bx, by = coordinates(b, _NAME)
    m = len(bx)
    # Column j of a row sits at index j + 1.  Index 0 is column -1: dead,
    # except in the virtual row above row 0, where its 0.0 seeds (0, 0).
    blank = [_INF] * (m + 1)
    prev = blank[:]
    prev[0] = 0.0
    cur = blank[:]
    lo, hi = 0, -1  # the previous row's live span
    for x, y in zip(ax, ay):
        first = last = -1
        # Columns the previous row reaches downward or diagonally.
        for j in range(lo, hi + 1):
            dx = x - bx[j]
            dy = y - by[j]
            d = dx * dx + dy * dy
            r = prev[j + 1]
            t = prev[j]
            if t < r:
                r = t
            t = cur[j]
            if t < r:
                r = t
            if d > r:
                r = d
            if r <= limit:
                cur[j + 1] = r
                if first < 0:
                    first = j
                last = j
        # Column hi + 1 still has the live diagonal (hi, or the seed);
        # past it, only the cell to the left.
        j = start = hi + 1
        r = prev[j]
        t = cur[j]
        if t < r:
            r = t
        while j < m:
            dx = x - bx[j]
            dy = y - by[j]
            d = dx * dx + dy * dy
            if d > r:
                r = d
            if r > limit:
                break
            j += 1
            cur[j] = r
        if j > start:
            last = j - 1
            if first < 0:
                first = start
        if first < 0:
            return None
        prev[lo : hi + 2] = blank[lo : hi + 2]
        prev, cur = cur, prev
        lo, hi = first, last
    return prev[m] if hi == m - 1 else None


def discrete_frechet(a: PointSeq, b: PointSeq) -> float:
    """Exact discrete Fréchet distance between point sequences."""
    return math.sqrt(_banded_sq(a, b, _greedy_sq(a, b)))


def discrete_frechet_within(a: PointSeq, b: PointSeq, eps: float) -> bool:
    """Early-abandoning decision ``D_F(a, b) <= eps``.

    Cells whose squared value already exceeds the (relaxed) squared
    threshold are dead and never seed a path; when a whole row is dead
    the answer is ``False`` without finishing the table.
    """
    final = _banded_sq(a, b, _relaxed_sq(eps))
    return final is not None and math.sqrt(final) <= eps


@register_measure
class DiscreteFrechet(Measure):
    """Discrete Fréchet distance; supports Lemmas 5 and 12."""

    name = "frechet"
    supports_start_end_filter = True

    def distance(self, a: PointSeq, b: PointSeq) -> float:
        return discrete_frechet(a, b)

    def upper_bound(self, a: PointSeq, b: PointSeq) -> float:
        return math.sqrt(_greedy_sq(a, b))

    def within(self, a: PointSeq, b: PointSeq, eps: float) -> bool:
        return discrete_frechet_within(a, b, eps)

    def distance_within(
        self, a: PointSeq, b: PointSeq, eps: float
    ) -> Optional[float]:
        """One fused DP: the decision and the exact answer value.

        Sound because the optimal coupling's prefix maxima never exceed
        its final value, so when the true distance is within the bound
        the optimal path survives clamping and the final cell holds the
        exact squared distance.
        """
        if eps == _INF:
            return discrete_frechet(a, b)
        final = _banded_sq(a, b, _relaxed_sq(eps))
        if final is None:
            return None
        value = math.sqrt(final)
        return value if value <= eps else None
