"""Dynamic Time Warping distance (Definition 13).

DTW sums matched-pair distances along the optimal monotone alignment.
Because every matched pair contributes non-negatively, DTW dominates
each individual pair distance, so both Lemma 5 and Lemma 12 hold
(Section VII-B) and the full pruning pipeline applies unchanged.

The dynamic program walks the same free-space band as discrete Fréchet
(:mod:`repro.measures.frechet`), with ``+`` where Fréchet takes ``max``.
Path costs only grow along an alignment — each cell adds a
non-negative distance, and rounded addition is monotone — so a cell
whose cost exceeds a ``limit`` lies on no alignment that ends within
it.  A row is visited from the previous row's first live column to one
past its last, then rightward while the cell to its left stays live;
every cell an alignment within the limit can reach is among those, so
each holds exactly the dense table's value, and a row with no live cell
ends the search.  Threshold decisions take the limit from ``eps``; the
exact distance takes it from the greedy coupling's summed cost
(:func:`~repro.measures.base.greedy_coupling`), also the measure's
``upper_bound``, which is never below the optimum when summed in the
same order as the program sums.

DTW sums *linear* distances, so the square root stays in the
recurrence: one ``math.sqrt(dx*dx + dy*dy)`` per visited cell, which is
correctly rounded and so the same float a vectorised ``np.sqrt`` gives.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.measures.base import (
    Measure,
    PointSeq,
    coordinates,
    greedy_coupling,
    register_measure,
)

_INF = math.inf
_NAME = "DTW"


def _greedy_sum(a: PointSeq, b: PointSeq) -> float:
    """An upper bound on DTW: the greedy coupling's cost, summed from
    ``(0, 0)`` in path order."""
    total = 0.0
    for d in greedy_coupling(*coordinates(a, _NAME), *coordinates(b, _NAME)):
        total += math.sqrt(d)
    return total


def _banded_sum(a: PointSeq, b: PointSeq, limit: float) -> Optional[float]:
    """DTW when it is ``<= limit``, else ``None``, visiting only the
    cells the limit leaves live."""
    ax, ay = coordinates(a, _NAME)
    bx, by = coordinates(b, _NAME)
    m = len(bx)
    sqrt = math.sqrt
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
            r = prev[j + 1]
            t = prev[j]
            if t < r:
                r = t
            t = cur[j]
            if t < r:
                r = t
            r += sqrt(dx * dx + dy * dy)
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
            r += sqrt(dx * dx + dy * dy)
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


def dtw(a: PointSeq, b: PointSeq) -> float:
    """Exact DTW distance between point sequences."""
    return _banded_sum(a, b, _greedy_sum(a, b))


def dtw_within(a: PointSeq, b: PointSeq, eps: float) -> bool:
    """Early-abandoning decision ``DTW(a, b) <= eps``."""
    return _banded_sum(a, b, eps) is not None


@register_measure
class DTW(Measure):
    """Dynamic Time Warping; supports Lemmas 5 and 12."""

    name = "dtw"
    supports_start_end_filter = True

    def distance(self, a: PointSeq, b: PointSeq) -> float:
        return dtw(a, b)

    def upper_bound(self, a: PointSeq, b: PointSeq) -> float:
        return _greedy_sum(a, b)

    def within(self, a: PointSeq, b: PointSeq, eps: float) -> bool:
        return dtw_within(a, b, eps)

    def distance_within(
        self, a: PointSeq, b: PointSeq, eps: float
    ) -> Optional[float]:
        """One fused DP: the decision and the exact answer value.

        Sound because path costs grow monotonically, so every prefix of
        the optimal alignment stays at or below its final cost — when
        that cost is within ``eps`` the optimal path survives clamping
        and the final cell holds it exactly.
        """
        if eps == _INF:
            return dtw(a, b)
        return _banded_sum(a, b, eps)
