"""Row-value serialisation for the trajectory table (Table I).

A stored row carries everything query processing needs without a second
lookup: the raw points (``points`` column), the Douglas-Peucker
representative indexes (``dp-points``) and the covering boxes
(``dp-mbrs``).  The layout is a single binary blob:

    u32 n_points | n_points * 2 f64   raw points
    u32 n_rep    | n_rep * u32        DP representative indexes
    u32 n_boxes  | n_boxes * 8 f64    oriented boxes
    u16 tid_len  | tid bytes          trajectory id (also in the key;
                                      kept in the value so a row is
                                      self-describing)

All numbers are big-endian for consistency with the row-key encoding.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.exceptions import KVStoreError
from repro.features.dp_features import DPFeatures
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.geometry.segment import OrientedBox

_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_BOX = struct.Struct(">8d")

PointTuple = Tuple[float, float]


def _pack_box(box: OrientedBox) -> bytes:
    return _BOX.pack(
        box.anchor.x,
        box.anchor.y,
        box.axis[0],
        box.axis[1],
        box.length,
        box.lo_along,
        box.lo_perp,
        box.hi_perp,
    )


def _unpack_box(data: bytes, offset: int) -> OrientedBox:
    ax, ay, ux, uy, length, lo_a, lo_p, hi_p = _BOX.unpack_from(data, offset)
    return OrientedBox(Point(ax, ay), (ux, uy), length, lo_a, lo_p, hi_p)


def encode_row(
    tid: str,
    points: Sequence[PointTuple],
    features: DPFeatures,
) -> bytes:
    """Serialise one trajectory row value."""
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
    parts.append(_U32.pack(len(features.boxes)))
    for box in features.boxes:
        parts.append(_pack_box(box))
    tid_bytes = tid.encode("utf-8")
    parts.append(_U16.pack(len(tid_bytes)))
    parts.append(tid_bytes)
    return b"".join(parts)


def decode_row(data: bytes) -> Tuple[str, List[PointTuple], DPFeatures]:
    """Inverse of :func:`encode_row` -> (tid, points, features)."""
    try:
        offset = 0
        (n_points,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        flat = struct.unpack_from(f">{2 * n_points}d", data, offset)
        offset += 16 * n_points
        points = [(flat[2 * i], flat[2 * i + 1]) for i in range(n_points)]
        (n_rep,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        rep = struct.unpack_from(f">{n_rep}I", data, offset) if n_rep else ()
        offset += 4 * n_rep
        (n_boxes,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        boxes = []
        for _ in range(n_boxes):
            boxes.append(_unpack_box(data, offset))
            offset += _BOX.size
        (tid_len,) = _U16.unpack_from(data, offset)
        offset += _U16.size
        tid = data[offset : offset + tid_len].decode("utf-8")
        offset += tid_len
    except (struct.error, UnicodeDecodeError) as exc:
        raise KVStoreError(f"corrupt trajectory row: {exc}") from exc
    if offset != len(data):
        raise KVStoreError(
            f"trailing bytes in trajectory row ({len(data) - offset})"
        )
    features = DPFeatures(
        rep_indexes=tuple(rep),
        rep_points=tuple(points[i] for i in rep),
        boxes=tuple(boxes),
        mbr=MBR.of_points(points),
    )
    return tid, points, features
