"""Row-value serialisation for the trajectory table (Table I).

A stored row carries everything query processing needs without a second
lookup: the raw points (``points`` column), the Douglas-Peucker
representative indexes (``dp-points``) and the covering boxes
(``dp-mbrs``).  The layout is a single binary blob:

    u32 n_points | n_points * 2 f64   raw points
    u32 n_rep    | n_rep * u32        DP representative indexes
    u32 n_boxes  | n_boxes * 8 f64    chord-aligned boxes (ax, ay, ux,
                                      uy, hi_a, lo_a, lo_p, hi_p)
    u16 tid_len  | tid bytes          trajectory id (also in the key;
                                      kept in the value so a row is
                                      self-describing)

All numbers are big-endian for consistency with the row-key encoding.

A row is read in two steps, in the order the local filter needs it:

* :func:`read_head` checks the framing (the three counts and the tid
  length must account for every byte) and reads only O(1) fields: the
  tid and the start and end points, which sit at the fixed offsets
  ``4`` and ``4 + 16 (n_points - 1)``.  Lemma 12 and the endpoint test
  of Lemma 5 need nothing else.
* :func:`read_coords` unpacks the point column (for the MBR and the
  points) and :func:`decode_tail` the DP columns (representative
  indexes, and the boxes as flat 8-float frames in
  ``segment_box_sq_distance`` order); a row rejected on its head never
  meets either.

Both steps read Table I's bytes where they already are; the layout has
no header for them.

:class:`repro.core.storage.TrajectoryRecord` composes the three; it is
the only decoder of a stored row.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Sequence, Tuple

from repro.exceptions import KVStoreError
from repro.features.dp_features import DPFeatures, Frame

_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_BOX = struct.Struct(">8d")
_XY = struct.Struct(">2d")

PointTuple = Tuple[float, float]


def encode_row(
    tid: str,
    points: Sequence[PointTuple],
    features: DPFeatures,
) -> bytes:
    """Serialise one trajectory row value.

    Each column is one ``struct.pack`` over a flat argument list; the
    ``dp-mbrs`` column stores a frame's along extents as ``hi_a, lo_a``.
    """
    if not points:
        raise KVStoreError(f"trajectory {tid!r} has no points")
    n_rep = len(features.rep_indexes)
    n_boxes = len(features.frames)
    tid_bytes = tid.encode("utf-8")
    return b"".join((
        _U32.pack(len(points)),
        struct.pack(f">{2 * len(points)}d", *chain.from_iterable(points)),
        _U32.pack(n_rep),
        struct.pack(f">{n_rep}I", *features.rep_indexes),
        _U32.pack(n_boxes),
        struct.pack(
            f">{8 * n_boxes}d",
            *chain.from_iterable(
                (ax, ay, ux, uy, hi_a, lo_a, lo_p, hi_p)
                for ax, ay, ux, uy, lo_a, hi_a, lo_p, hi_p in features.frames
            ),
        ),
        _U16.pack(len(tid_bytes)),
        tid_bytes,
    ))


def read_head(data: bytes) -> Tuple[str, PointTuple, PointTuple, int, int, int]:
    """Check a row's framing and read its O(1) fields.

    Returns ``(tid, start, end, n_points, n_rep, n_boxes)``.  Raises
    :class:`KVStoreError` for any row whose counts do not frame its
    bytes exactly, and for a row without points.
    """
    try:
        (n_points,) = _U32.unpack_from(data, 0)
        if n_points == 0:
            raise KVStoreError("corrupt trajectory row: no points")
        reps_at = 4 + 16 * n_points
        (n_rep,) = _U32.unpack_from(data, reps_at)
        boxes_at = reps_at + 4 + 4 * n_rep
        (n_boxes,) = _U32.unpack_from(data, boxes_at)
        tid_at = boxes_at + 4 + _BOX.size * n_boxes
        (tid_len,) = _U16.unpack_from(data, tid_at)
        tid_at += _U16.size
        if tid_at + tid_len != len(data):
            raise KVStoreError(
                f"corrupt trajectory row: framed {tid_at + tid_len} bytes, "
                f"holds {len(data)}"
            )
        tid = data[tid_at:].decode("utf-8")
    except (struct.error, UnicodeDecodeError) as exc:
        raise KVStoreError(f"corrupt trajectory row: {exc}") from exc
    start = _XY.unpack_from(data, 4)
    end = _XY.unpack_from(data, reps_at - 16)
    return tid, start, end, n_points, n_rep, n_boxes


def read_coords(data: bytes, n_points: int) -> Tuple[float, ...]:
    """The point column as flat ``x0, y0, x1, y1, ...`` of a row whose
    framing :func:`read_head` has checked."""
    return struct.unpack_from(f">{2 * n_points}d", data, 4)


def decode_tail(
    data: bytes, n_points: int, n_rep: int, n_boxes: int
) -> Tuple[Tuple[int, ...], Tuple[Frame, ...]]:
    """The DP columns ``(rep_indexes, frames)`` of a row whose framing
    :func:`read_head` has checked.

    The box column is unpacked with one ``unpack_from`` and regrouped
    into :data:`~repro.features.dp_features.Frame` tuples; no box object
    is built.  Counts that ``extract_dp_features`` cannot produce (no
    representative, or a box count other than ``max(1, n_rep - 1)``)
    and a representative index that names no point raise
    :class:`KVStoreError`.
    """
    if n_rep < 1 or n_boxes != max(1, n_rep - 1):
        raise KVStoreError(
            f"corrupt trajectory row: {n_rep} representative points "
            f"with {n_boxes} boxes"
        )
    reps_at = 8 + 16 * n_points
    rep = struct.unpack_from(f">{n_rep}I", data, reps_at)
    if max(rep) >= n_points:
        raise KVStoreError(
            f"corrupt trajectory row: representative index {max(rep)} "
            f"of {n_points} points"
        )
    v = struct.unpack_from(f">{8 * n_boxes}d", data, reps_at + 4 * n_rep + 4)
    return rep, tuple(
        zip(v[0::8], v[1::8], v[2::8], v[3::8],
            v[5::8], v[4::8], v[6::8], v[7::8])
    )
