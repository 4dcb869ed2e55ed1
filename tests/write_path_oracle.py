"""The object-based write path, kept as the ``==`` oracle.

Ingest places, simplifies and boxes a trajectory on its float columns
(``XZStarIndex.place``, ``douglas_peucker_mask``, ``chord_frame``,
``encode_row``).  The implementations those kernels replaced — a
normalised point tuple per point, an ``MBR``, a frozenset of sub-quad
letters, ``point_segment_distance`` per DP test, an
:class:`OrientedBox` per run, a generator per packed float — live on
here unchanged:

* :func:`normalize`, :func:`smallest_enlarged_element`,
  :func:`touched_quads`, :func:`position_code_of` and :func:`place` (and
  :func:`xz2_place`) are the old placement;
* :func:`douglas_peucker_mask`, :class:`OrientedBox` (``cover`` and the
  object methods the read path used to call) and
  :func:`extract_dp_features` are the old features;
* :func:`encode_row` is the old row codec, and :func:`prepare` is
  ``TrajectoryStore._prepare`` composed from all of the above.

``OrientedBox`` also serves the read-path oracle (``box_oracle.py``) and
the Lemma 14 kernel tests as the reference box.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple

from repro.exceptions import GeometryError, IndexingError, KVStoreError
from repro.features.dp_features import DPFeatures
from repro.geometry.distance import point_segment_distance
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.geometry.segment import frame_corners, segment_box_sq_distance
from repro.index.position_code import QUADS_TO_CODE, Quad
from repro.index.quadrant import Element
from repro.kvstore.rowkey import encode_rowkey, encode_string_rowkey, shard_of

PointTuple = Tuple[float, float]


# ----------------------------------------------------------------------
# Placement (XZ*, Section IV-B/C)
# ----------------------------------------------------------------------
def normalize(bounds, x: float, y: float) -> Tuple[float, float]:
    """``SpaceBounds.normalize``: world point -> clamped unit point."""
    nx = (x - bounds.min_x) / bounds.width
    ny = (y - bounds.min_y) / bounds.height
    return min(max(nx, 0.0), 1.0), min(max(ny, 0.0), 1.0)


def _cell_coordinate(value: float, level: int) -> int:
    side = 1 << level
    idx = int(value * side)
    if idx >= side:
        idx = side - 1
    if idx < 0:
        idx = 0
    return idx


def _fits(mbr: MBR, level: int) -> bool:
    w = 0.5**level
    cx = _cell_coordinate(mbr.min_x, level)
    cy = _cell_coordinate(mbr.min_y, level)
    return mbr.max_x <= (cx + 2) * w and mbr.max_y <= (cy + 2) * w


def smallest_enlarged_element(mbr: MBR, max_resolution: int) -> Element:
    if max_resolution < 1:
        raise IndexingError(f"max resolution must be >= 1, got {max_resolution}")
    max_dim = max(mbr.width, mbr.height)
    if max_dim <= 0.0:
        level = max_resolution
    else:
        level = min(max_resolution, max(0, int(math.floor(-math.log2(max_dim)))))
        while level > 0 and not _fits(mbr, level):
            level -= 1
        while level < max_resolution and _fits(mbr, level + 1):
            level += 1
    cx = _cell_coordinate(mbr.min_x, level)
    cy = _cell_coordinate(mbr.min_y, level)
    return Element(level, cx, cy)


def _classify_point(x: float, y: float, x0: float, y0: float, w: float) -> Quad:
    right = x > x0 + w
    top = y > y0 + w
    if right:
        return "d" if top else "c"
    return "b" if top else "a"


def touched_quads(
    points: Sequence[Tuple[float, float]], element: Element
) -> FrozenSet[Quad]:
    """The set of sub-quads containing at least one trajectory point."""
    w = element.cell_width
    x0, y0 = element.ix * w, element.iy * w
    return frozenset(_classify_point(x, y, x0, y0, w) for x, y in points)


def position_code_of(
    points: Sequence[Tuple[float, float]],
    element: Element,
    max_resolution: int,
) -> int:
    quads = touched_quads(points, element)
    try:
        code = QUADS_TO_CODE[quads]
    except KeyError:
        raise IndexingError(
            f"trajectory touches illegal sub-quad combination "
            f"{sorted(quads)} of element {element.sequence_str!r}; "
            "was the element computed with smallest_enlarged_element?"
        ) from None
    if code == 10 and element.level < max_resolution:
        raise IndexingError(
            "single-quad combination {a} below the maximum resolution; "
            "the enlarged element is not the smallest one"
        )
    return code


def place(index, trajectory) -> Tuple[Element, int]:
    """``XZStarIndex.place``: the (element, position code) pair."""
    norm_points = [normalize(index.bounds, x, y) for x, y in trajectory.points]
    mbr = MBR.of_points(norm_points)
    element = smallest_enlarged_element(mbr, index.max_resolution)
    code = position_code_of(norm_points, element, index.max_resolution)
    return element, code


def xz2_place(index, trajectory) -> Element:
    """``XZ2Index.place``: the smallest enlarged element alone."""
    norm_points = [normalize(index.bounds, x, y) for x, y in trajectory.points]
    mbr = MBR.of_points(norm_points)
    return smallest_enlarged_element(mbr, index.max_resolution)


# ----------------------------------------------------------------------
# DP features (Section IV-D)
# ----------------------------------------------------------------------
def douglas_peucker_mask(
    points: Sequence[PointTuple], theta: float
) -> List[bool]:
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


def douglas_peucker(points: Sequence[PointTuple], theta: float) -> List[int]:
    mask = douglas_peucker_mask(points, theta)
    return [i for i, kept in enumerate(mask) if kept]


@dataclass(frozen=True)
class OrientedBox:
    """A rectangle aligned with a chord, covering a run of points.

    The box is described by the chord (``anchor`` -> ``anchor + axis``)
    plus signed perpendicular extents and signed extensions along the
    chord.  Distances are computed in the box's local frame.
    """

    anchor: Point
    axis: Tuple[float, float]  # unit vector along the chord
    length: float  # extent along the axis from the anchor
    lo_along: float  # signed extension behind the anchor (<= 0)
    lo_perp: float  # signed extent below the chord (<= 0)
    hi_perp: float  # signed extent above the chord (>= 0)

    @staticmethod
    def cover(points: Sequence[Tuple[float, float]]) -> "OrientedBox":
        """Smallest chord-aligned box covering ``points``."""
        if not points:
            raise GeometryError("cannot cover zero points")
        first = Point(*points[0])
        last = Point(*points[-1])
        vx, vy = last.x - first.x, last.y - first.y
        norm = math.hypot(vx, vy)
        if norm == 0.0:
            ux, uy = 1.0, 0.0
            chord = 0.0
        else:
            ux, uy = vx / norm, vy / norm
            chord = norm
        lo_a = hi_a = lo_p = hi_p = 0.0
        for px, py in points:
            rx, ry = px - first.x, py - first.y
            along = rx * ux + ry * uy
            perp = -rx * uy + ry * ux
            lo_a = min(lo_a, along)
            hi_a = max(hi_a, along)
            lo_p = min(lo_p, perp)
            hi_p = max(hi_p, perp)
        hi_a = max(hi_a, chord)
        return OrientedBox(first, (ux, uy), hi_a, lo_a, lo_p, hi_p)

    def _local(self, x: float, y: float) -> Tuple[float, float]:
        """Coordinates of ``(x, y)`` in the box frame (along, perp)."""
        ux, uy = self.axis
        rx, ry = x - self.anchor.x, y - self.anchor.y
        return rx * ux + ry * uy, -rx * uy + ry * ux

    def distance_to_point(self, x: float, y: float) -> float:
        """Minimum distance from ``(x, y)`` to the box (0 if inside)."""
        along, perp = self._local(x, y)
        da = max(self.lo_along - along, 0.0, along - self.length)
        dp = max(self.lo_perp - perp, 0.0, perp - self.hi_perp)
        return math.hypot(da, dp)

    def contains_point(self, x: float, y: float, tol: float = 1e-12) -> bool:
        along, perp = self._local(x, y)
        return (
            self.lo_along - tol <= along <= self.length + tol
            and self.lo_perp - tol <= perp <= self.hi_perp + tol
        )

    def frame(self) -> Tuple[float, ...]:
        """The box as the eight floats :func:`segment_box_sq_distance`
        takes: anchor, axis, then the along and perp extents."""
        return (
            self.anchor.x,
            self.anchor.y,
            self.axis[0],
            self.axis[1],
            self.lo_along,
            self.length,
            self.lo_perp,
            self.hi_perp,
        )

    def corner_coords(self) -> Tuple[float, ...]:
        """The four corners as flat world coordinates
        ``(x0, y0, ..., x3, y3)``."""
        return frame_corners(*self.frame())

    def corners(self) -> List[Point]:
        c = self.corner_coords()
        return [Point(c[i], c[i + 1]) for i in (0, 2, 4, 6)]

    def mbr(self) -> MBR:
        """Axis-aligned envelope of the oriented box."""
        return MBR.of_points(self.corners())

    def edges(self) -> List[Tuple[Point, Point]]:
        cs = self.corners()
        return [(cs[i], cs[(i + 1) % 4]) for i in range(4)]

    def distance_to_segment(self, a: Point, b: Point) -> float:
        """Exact minimum distance from segment ``a-b`` to the box."""
        return math.sqrt(
            segment_box_sq_distance(a[0], a[1], b[0], b[1], *self.frame())
        )


def extract_dp_features(
    points: Sequence[PointTuple], theta: float
) -> DPFeatures:
    if not points:
        raise GeometryError("cannot extract DP features of zero points")
    rep_indexes = douglas_peucker(points, theta)
    rep_points = tuple(points[i] for i in rep_indexes)
    if len(rep_indexes) == 1:
        boxes = [OrientedBox.cover([points[rep_indexes[0]]])]
    else:
        boxes = [
            OrientedBox.cover(points[lo : hi + 1])
            for lo, hi in zip(rep_indexes, rep_indexes[1:])
        ]
    return DPFeatures(
        rep_indexes=tuple(rep_indexes),
        rep_points=rep_points,
        frames=tuple(box.frame() for box in boxes),
    )


# ----------------------------------------------------------------------
# Row codec (Table I) and the composed write path
# ----------------------------------------------------------------------
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_BOX = struct.Struct(">8d")


def _pack_frame(frame) -> bytes:
    ax, ay, ux, uy, lo_a, hi_a, lo_p, hi_p = frame
    return _BOX.pack(ax, ay, ux, uy, hi_a, lo_a, lo_p, hi_p)


def encode_row(
    tid: str,
    points: Sequence[PointTuple],
    features: DPFeatures,
) -> bytes:
    if not points:
        raise KVStoreError(f"trajectory {tid!r} has no points")
    parts: List[bytes] = [_U32.pack(len(points))]
    parts.append(
        struct.pack(f">{2 * len(points)}d", *(c for p in points for c in p))
    )
    parts.append(_U32.pack(len(features.rep_indexes)))
    if features.rep_indexes:
        parts.append(
            struct.pack(f">{len(features.rep_indexes)}I", *features.rep_indexes)
        )
    parts.append(_U32.pack(len(features.frames)))
    parts.extend(_pack_frame(frame) for frame in features.frames)
    tid_bytes = tid.encode("utf-8")
    parts.append(_U16.pack(len(tid_bytes)))
    parts.append(tid_bytes)
    return b"".join(parts)


def prepare(store, trajectory) -> Tuple[bytes, bytes, int]:
    """``TrajectoryStore._prepare`` on the object path: row key, row
    blob and index value of one trajectory."""
    config = store.config
    config.bounds.check_stored(trajectory.tid, MBR.of_points(trajectory.points))
    element, code = place(store.index, trajectory)
    value = store.index.value(element, code)
    features = extract_dp_features(trajectory.points, config.dp_tolerance)
    shard = shard_of(trajectory.tid, config.shards)
    if store.key_encoding == "integer":
        key = encode_rowkey(shard, value, trajectory.tid)
    else:
        decoded, decoded_code = store.index.decode(value)
        key = encode_string_rowkey(
            shard, decoded.sequence_str, decoded_code, trajectory.tid
        )
    blob = encode_row(trajectory.tid, trajectory.points, features)
    return key, blob, value
