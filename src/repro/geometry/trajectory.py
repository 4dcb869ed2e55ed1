"""Trajectory type — an identified, ordered sequence of 2-D points.

The library treats points as raw ``(x, y)`` tuples in hot loops; this
class keeps the identifier, memoises the MBR, and provides the handful
of derived views (prefixes, segments) the paper's definitions use.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import GeometryError
from repro.geometry.mbr import MBR
from repro.geometry.point import Point

PointTuple = Tuple[float, float]
#: ``(xs, ys)``: a sequence's coordinates as two float columns
Columns = Tuple[Tuple[float, ...], Tuple[float, ...]]


def columns_of(points) -> Columns:
    """The x and y coordinates of ``points`` as two float columns.

    A :class:`Trajectory` or a stored record returns the ``columns`` it
    carries; a plain point sequence is converted with the same ``float``
    conversion :class:`Trajectory` applies, so both give the same floats.
    """
    columns = getattr(points, "columns", None)
    if columns is not None:
        return columns
    return (
        tuple([float(p[0]) for p in points]),
        tuple([float(p[1]) for p in points]),
    )


def columns_mbr(columns: Columns) -> MBR:
    """The bounding rectangle of two coordinate columns."""
    xs, ys = columns
    return MBR(min(xs), min(ys), max(xs), max(ys))


class ColumnView(NamedTuple):
    """A trajectory's id, coordinate columns and MBR, read once without
    caching them on it: what ingest checks, places, simplifies and
    boxes, so a caller's trajectory keeps no second copy of its
    coordinates."""

    tid: str
    columns: Columns
    mbr: MBR

    @classmethod
    def of(cls, trajectory: "Trajectory") -> "ColumnView":
        columns = trajectory.read_columns()
        mbr = trajectory._mbr
        if mbr is None:
            mbr = columns_mbr(columns)
        return cls(trajectory.tid, columns, mbr)


class Trajectory:
    """A trajectory ``T = (t_1, ..., t_n)`` with identifier ``tid``.

    Instances are immutable after construction; the point list is copied
    and the MBR and coordinate columns computed lazily.  Every
    coordinate must be finite: this is the front door for stored data
    and queries alike, and a NaN compares false in every interval test
    behind it.
    """

    __slots__ = ("tid", "_points", "_mbr", "_columns")

    def __init__(self, tid: str, points: Sequence[PointTuple]):
        if not points:
            raise GeometryError(f"trajectory {tid!r} has no points")
        self.tid = str(tid)
        self._points: Tuple[PointTuple, ...] = tuple(
            (float(p[0]), float(p[1])) for p in points
        )
        if not all(map(math.isfinite, chain.from_iterable(self._points))):
            raise GeometryError(
                f"trajectory {tid!r} has a non-finite coordinate (NaN or inf)"
            )
        self._mbr: Optional[MBR] = None
        self._columns: Optional[Columns] = None

    # ------------------------------------------------------------------
    @property
    def points(self) -> Tuple[PointTuple, ...]:
        return self._points

    @property
    def mbr(self) -> MBR:
        if self._mbr is None:
            self._mbr = columns_mbr(self.columns)
        return self._mbr

    @property
    def columns(self) -> Columns:
        """The x and y coordinates as two float tuples, extracted once:
        what the measures' kernels index."""
        columns = self._columns
        if columns is None:
            columns = self._columns = self.read_columns()
        return columns

    def read_columns(self) -> Columns:
        """The columns, without caching them: the cached ones if
        :attr:`columns` already built them, else a fresh pair."""
        columns = self._columns
        if columns is None:
            columns = tuple(zip(*self._points))
        return columns

    @property
    def start(self) -> Point:
        return Point(*self._points[0])

    @property
    def end(self) -> Point:
        return Point(*self._points[-1])

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[PointTuple]:
        return iter(self._points)

    def __getitem__(self, index: int) -> PointTuple:
        return self._points[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.tid == other.tid and self._points == other._points

    def __hash__(self) -> int:
        return hash((self.tid, self._points))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trajectory({self.tid!r}, n={len(self._points)})"

    # ------------------------------------------------------------------
    def prefix(self, j: int) -> "Trajectory":
        """``T^j`` — the prefix up to (and including) the ``j``-th point.

        ``j`` is 1-based, as in the paper's Definition 1.
        """
        if not 1 <= j <= len(self._points):
            raise GeometryError(f"prefix length {j} out of range 1..{len(self)}")
        return Trajectory(self.tid, self._points[:j])

    def segments(self) -> List[Tuple[PointTuple, PointTuple]]:
        """Consecutive point pairs; empty for single-point trajectories."""
        return [
            (self._points[i], self._points[i + 1])
            for i in range(len(self._points) - 1)
        ]

    def is_stationary(self, tol: float = 0.0) -> bool:
        """True if every point lies within ``tol`` of the first point.

        Stationary taxi trajectories are what produces the paper's peak
        at the maximum resolution in Figure 12(a).
        """
        box = self.mbr
        return box.width <= tol and box.height <= tol

    def translated(self, dx: float, dy: float, tid: Optional[str] = None) -> "Trajectory":
        """A copy shifted by ``(dx, dy)`` (used by dataset scaling)."""
        return Trajectory(
            tid if tid is not None else self.tid,
            [(x + dx, y + dy) for x, y in self._points],
        )
