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

Threshold refinement asks for a query's survivors all at once
(:meth:`DiscreteFrechet.distance_within_many`).  From ``_BATCH_MIN``
rows up that is one NumPy program over the anti-diagonals of all their
lattices (:func:`_group_sq`), which computes every cell unclamped and
compares only the final one with the limit: the same value the band
gives, because clamping commutes with ``min`` and ``max``.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import List, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

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

#: below this many rows :meth:`DiscreteFrechet.distance_within_many`
#: runs the banded loop per row: the batched program costs about three
#: NumPy calls per anti-diagonal whatever the row count, the loop about
#: 23 µs per row.  Set from the first C survivors of every
#: ``ingest_reopen`` / ``thr_dense`` query (median ms per query, loop
#: vs batch, 2-vCPU x86 box): C = 6: 0.149 vs 0.190 / 0.138 vs 0.158;
#: C = 8: 0.201 vs 0.200 / 0.182 vs 0.180; C = 10: 0.247 vs 0.215 /
#: 0.223 vs 0.189; C = 16: 0.390 vs 0.257 / 0.359 vs 0.239.
_BATCH_MIN = 10
#: the most padded lattice cells (rows x query points x longest row)
#: one batched group holds, so a query never allocates one tensor
#: padded to its longest survivor (that cost ``thr_dense`` +15 % peak
#: RSS; this budget, +2 %)
_GROUP_CELLS = 1 << 17


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


def _group_sq(qx: np.ndarray, qy: np.ndarray, rows: list) -> List[float]:
    """The unclamped squared discrete Fréchet distance from the query
    ``(qx, qy)`` to each of ``rows`` (column pairs sorted by length),
    by one dynamic program over the anti-diagonals of the rows'
    lattices at once.

    Cell ``(i, j)`` of row ``k`` sits on diagonal ``s = i + j`` at
    ``[k, i]``: its three predecessors lie on the two diagonals
    before, so each diagonal is two ``minimum`` and one ``maximum``
    over all rows.  Rows are padded to the longest with ``inf``
    points, whose cells are ``inf`` and feed no real cell (they lie
    right of it), and a row's answer is read on the diagonal where its
    last cell lies.
    """
    n = len(qx)
    count = len(rows)
    lengths = [len(xs) for xs, _ in rows]
    width = lengths[-1]
    pad = np.arange(width) < np.array(lengths)[:, None]
    bx = np.full((count, width), _INF)
    by = np.full((count, width), _INF)
    total = sum(lengths)
    flat = chain.from_iterable
    bx[pad] = np.fromiter(flat(xs for xs, _ in rows), float, total)
    by[pad] = np.fromiter(flat(ys for _, ys in rows), float, total)
    # d[k, i, j] as the loop computes it: dx*dx + dy*dy, dx = x - bx[j]
    dx = qx[:, None] - bx[:, None, :]
    dx *= dx
    dy = qy[:, None] - by[:, None, :]
    dy *= dy
    # Skewed once: diag[s, k, i] = d[k, i, s - i], inf off the lattice.
    diagonals = n + width - 1
    skew = np.full((diagonals, count, n), _INF)
    step = skew.itemsize
    np.add(
        dx,
        dy,
        out=as_strided(
            skew,
            shape=(count, n, width),
            strides=(n * step, (count * n + 1) * step, count * n * step),
        ),
    )
    del dx, dy
    # Three rotating diagonals, each as (whole, cells i - 1, cells i);
    # column 0 is row i = -1: dead, never written.
    before, last, cur = (
        (d, d[:, :-1], d[:, 1:])
        for d in np.full((3, count, n + 1), _INF)
    )
    last[2][...] = skew[0]  # (0, 0) has no predecessor
    low = np.empty((count, n))
    minimum, maximum = np.minimum, np.maximum
    out: List[float] = [_INF] * count
    ends: dict = {}
    for k, m in enumerate(lengths):
        ends.setdefault(n + m - 2, []).append(k)
    for s, plane in enumerate(skew):
        if s:
            minimum(last[1], last[2], out=low)
            minimum(low, before[1], out=low)
            maximum(low, plane, out=cur[2])
            before, last, cur = last, cur, before
        for k in ends.get(s, ()):
            out[k] = float(last[0][k, n])
    return out


def _batched_sq(a: PointSeq, bs: Sequence[PointSeq]) -> List[float]:
    """The squared discrete Fréchet distance from ``a`` to each of
    ``bs``: rows sorted by length, in groups of at most
    ``_GROUP_CELLS`` padded cells (a longer row alone), each one
    :func:`_group_sq`."""
    ax, ay = coordinates(a, _NAME)
    n = len(ax)
    qx = np.fromiter(ax, float, n)
    qy = np.fromiter(ay, float, n)
    cols = [coordinates(b, _NAME) for b in bs]
    groups: List[List[int]] = [[]]
    for k in sorted(range(len(cols)), key=lambda k: len(cols[k][0])):
        group = groups[-1]
        if group and (len(group) + 1) * n * len(cols[k][0]) > _GROUP_CELLS:
            groups.append([k])
        else:
            group.append(k)
    out: List[float] = [_INF] * len(cols)
    for group in groups:
        values = _group_sq(qx, qy, [cols[k] for k in group])
        for k, value in zip(group, values):
            out[k] = value
    return out


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

    def distance_within_many(
        self, a: PointSeq, bs: Sequence[PointSeq], eps: float
    ) -> List[Optional[float]]:
        """:meth:`distance_within` against every row, from one batched
        program over all of them (:func:`_batched_sq`) when there are
        at least ``_BATCH_MIN``.

        The batch computes every cell unclamped and clamps only the
        final one, which equals the banded loop's value cell for cell:
        ``clamp(x) = x if x <= limit else inf`` is monotone, so it
        commutes with the recurrence's ``min`` and ``max`` over values
        that are all ``>= 0``.  The decision and ``sqrt`` then match
        :meth:`distance_within`, so the floats are the same.
        """
        if len(bs) < _BATCH_MIN or eps == _INF:
            return [self.distance_within(a, b, eps) for b in bs]
        limit = _relaxed_sq(eps)
        out: List[Optional[float]] = []
        for final in _batched_sq(a, bs):
            value = math.sqrt(final) if final <= limit else _INF
            out.append(value if value <= eps else None)
        return out
