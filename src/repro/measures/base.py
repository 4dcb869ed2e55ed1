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

It also holds what the two lattice measures, discrete Fréchet and DTW,
share: coordinate extraction and the greedy coupling that bounds their
unbounded runs.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.exceptions import QueryError

PointSeq = Sequence[Tuple[float, float]]


def coordinates(points: PointSeq, measure: str) -> Tuple[List[float], List[float]]:
    """The x and y coordinates of ``points`` as two lists of floats,
    which is what the lattice kernels index per cell."""
    if len(points) == 0:
        raise ValueError(f"{measure} distance of an empty sequence")
    return [float(p[0]) for p in points], [float(p[1]) for p in points]


def greedy_coupling(
    ax: List[float], ay: List[float], bx: List[float], by: List[float]
) -> Iterator[float]:
    """Squared point distances along one monotone coupling, in order.

    From ``(0, 0)`` the coupling always steps to the cheapest of its
    three successors (the diagonal on ties) and, once one sequence is
    exhausted, walks the other to the end.  Any coupling's cost bounds
    the optimal one's from above; each value is computed the way the
    lattice kernels compute a cell (``dx*dx + dy*dy``), so the bound
    holds for their floats exactly.
    """
    n, m = len(ax), len(bx)

    def sq(i: int, j: int) -> float:
        dx = ax[i] - bx[j]
        dy = ay[i] - by[j]
        return dx * dx + dy * dy

    i = j = 0
    yield sq(0, 0)
    while i < n - 1 and j < m - 1:
        diag, down, right = sq(i + 1, j + 1), sq(i + 1, j), sq(i, j + 1)
        if diag <= down and diag <= right:
            i += 1
            j += 1
            yield diag
        elif down <= right:
            i += 1
            yield down
        else:
            j += 1
            yield right
    for i in range(i + 1, n):
        yield sq(i, j)
    for j in range(j + 1, m):
        yield sq(i, j)


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
