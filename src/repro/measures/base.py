"""Measure protocol and registry.

A measure maps two point sequences to a non-negative number.  Pruning
correctness requires two properties the paper states as Lemma 5 and
Lemma 12:

* Lemma 5: for every point ``t`` of one trajectory,
  ``f(T1, T2) >= d(t, T2)``.  Every registered measure must have it:
  global pruning, local filtering and top-k's bounds all rest on it
  (Section VII), and the engine has no other query path.
* ``supports_start_end_filter`` — Lemma 12: ``f >= d(q_1, t_1)`` and
  ``f >= d(q_n, t_m)``.  True for Fréchet and DTW, *false* for
  Hausdorff (its matching is unordered), so the start/end filter must be
  skipped there (Section VII-A).

Every measure also has a cheap ``upper_bound``: top-k's working
threshold is the k-th smallest bound it knows, so a queued candidate
can tighten it before its exact distance is computed.  What the two
lattice measures, discrete Fréchet and DTW, share lives here too:
coordinate extraction and the greedy coupling whose cost is their
bound and limits the band of their unbounded runs.

A side is a point sequence, a :class:`~repro.geometry.trajectory.
Trajectory` or a stored :class:`~repro.core.storage.TrajectoryRecord`.
The last two carry their coordinate columns (a trajectory keeps them, a
record slices them from the coordinates it decoded), so a query refined
against many rows is extracted once and a row is not re-read point by
point; the kernels see the same floats either way.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.exceptions import QueryError
from repro.geometry.trajectory import columns_of

#: a side of a measure: ``(x, y)`` points, or an object whose
#: ``columns`` are its ``(xs, ys)`` floats (see :func:`coordinates`)
PointSeq = Sequence[Tuple[float, float]]

#: Relative slack for comparing a bound computed along one float path
#: (``math.hypot``, an MBR gap) with a kernel value computed along
#: another (``sqrt(dx*dx + dy*dy)``): the two can differ by an ulp where
#: the reals are equal, so a bound is only decisive beyond this margin.
RELATIVE_SLACK = 1e-12


def coordinates(
    points: PointSeq, measure: str
) -> Tuple[Sequence[float], Sequence[float]]:
    """The x and y coordinates of ``points`` as two float columns, which
    is what the kernels index per cell.

    A ``Trajectory`` or ``TrajectoryRecord`` returns the ``columns`` it
    carries (never empty); a plain point list, as baselines and tests
    pass, is converted here on every call, with the same ``float``
    conversion ``Trajectory`` applies, so both give the same floats.
    """
    xs, ys = columns_of(points)
    if not xs:
        raise ValueError(f"{measure} distance of an empty sequence")
    return xs, ys


def greedy_coupling(
    ax: Sequence[float],
    ay: Sequence[float],
    bx: Sequence[float],
    by: Sequence[float],
) -> List[float]:
    """Squared point distances along one monotone coupling, in order.

    From ``(0, 0)`` the coupling always steps to the cheapest of its
    three successors (the diagonal on ties) and, once one sequence is
    exhausted, walks the other to the end.  Any coupling's cost bounds
    the optimal one's from above; each value is computed the way the
    lattice kernels compute a cell (``dx*dx + dy*dy``), so the bound
    holds for their floats exactly.  One plain loop, no generator: top-k
    runs it on every candidate it queues.
    """
    n, m = len(ax) - 1, len(bx) - 1
    i = j = 0
    x, y, u, v = ax[0], ay[0], bx[0], by[0]
    dx = x - u
    dy = y - v
    steps = [dx * dx + dy * dy]
    step = steps.append
    while i < n and j < m:
        x1, y1, u1, v1 = ax[i + 1], ay[i + 1], bx[j + 1], by[j + 1]
        dx = x1 - u1
        dy = y1 - v1
        diag = dx * dx + dy * dy
        dx = x1 - u
        dy = y1 - v
        down = dx * dx + dy * dy
        dx = x - u1
        dy = y - v1
        right = dx * dx + dy * dy
        if diag <= down and diag <= right:
            i += 1
            j += 1
            x, y, u, v = x1, y1, u1, v1
            step(diag)
        elif down <= right:
            i += 1
            x, y = x1, y1
            step(down)
        else:
            j += 1
            u, v = u1, v1
            step(right)
    while i < n:
        i += 1
        dx = ax[i] - u
        dy = ay[i] - v
        step(dx * dx + dy * dy)
    while j < m:
        j += 1
        dx = x - bx[j]
        dy = y - by[j]
        step(dx * dx + dy * dy)
    return steps


class Measure(abc.ABC):
    """A trajectory similarity distance ``f(Q, T)``."""

    #: registry key, e.g. ``"frechet"``
    name: str = ""
    #: Lemma 12 holds (start/end point distances lower-bound f).
    supports_start_end_filter: bool = True

    @abc.abstractmethod
    def distance(self, a: PointSeq, b: PointSeq) -> float:
        """Exact distance between point sequences ``a`` and ``b``."""

    @abc.abstractmethod
    def upper_bound(self, a: PointSeq, b: PointSeq) -> float:
        """A value never below ``distance(a, b)``, in O(len(a) + len(b)).

        It holds for the floats, not just the reals: the kernels' exact
        value is ``<=`` it, so ``distance_within(a, b, upper_bound(a,
        b))`` always returns the distance.
        """

    @abc.abstractmethod
    def within(self, a: PointSeq, b: PointSeq, eps: float) -> bool:
        """True iff ``distance(a, b) <= eps``, abandoning early once the
        answer is provably ``False``."""

    @abc.abstractmethod
    def distance_within(
        self, a: PointSeq, b: PointSeq, eps: float
    ) -> Optional[float]:
        """The exact distance when it is ``<= eps``, else ``None``.

        The fused refinement kernel: a threshold refinement needs both
        the decision and, for answers, the exact value, computed in one
        early-abandoning pass.  With ``eps == inf`` this is exactly
        :meth:`distance`.
        """

    def distance_within_many(
        self, a: PointSeq, bs: Sequence[PointSeq], eps: float
    ) -> List[Optional[float]]:
        """:meth:`distance_within` of ``a`` against each of ``bs``, in
        order: how threshold refinement asks, once per query, for all of
        its survivors.  A measure may override it with a batched kernel
        that returns the same floats."""
        return [self.distance_within(a, b, eps) for b in bs]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, Type[Measure]] = {}


def register_measure(cls: Type[Measure]) -> Type[Measure]:
    """Class decorator adding a measure to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no registry name")
    _REGISTRY[cls.name] = cls
    return cls


def get_measure(name: str) -> Measure:
    """Instantiate a measure by registry name (``frechet``/``hausdorff``/``dtw``)."""
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        raise QueryError(
            f"unknown measure {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_measures() -> Tuple[str, ...]:
    """Registry keys of all shipped measures."""
    return tuple(sorted(_REGISTRY))
