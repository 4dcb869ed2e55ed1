"""Compact mmap segments: the store's one on-disk run format.

A segment is an immutable sorted run — the same logical object as an
:class:`~repro.kvstore.sstable.SSTable` — persisted in a compressed
columnar layout and opened through ``mmap``:

* the file carries a **block index** (first/last key, file offset,
  length, entry count, CRC32 and logical byte size per block) plus a
  **persisted bloom filter**, so opening a segment parses only the
  index section — no entry bytes are touched;
* entry data lives in **blocks** that are materialised lazily on first
  access.  Blocks holding trajectory rows are stored columnar:
  front-coded keys, delta-encoded + quantised point coordinates
  (``np.frombuffer`` off the decompressed stream), delta-encoded DP
  representative indexes, and covering boxes *rebuilt* from the points
  (chord boxes are a pure function of points + representative indexes)
  rather than stored — the big wins behind the 3x+ footprint
  reduction;
* every block is **verified at encode time**: the writer decodes each
  block it just encoded and compares the result byte-for-byte with the
  input, falling back to a plain zlib block (and, for points, to raw
  float64) on any mismatch.  Byte-identical reads are therefore a
  construction-time guarantee, never a float-determinism argument;
* per-block CRC32 gives **block-level corruption isolation**: a flipped
  bit in one block raises :class:`~repro.exceptions.CorruptSegmentError`
  when that block is first touched, while every other block keeps
  serving.

Quantisation is lossless by *test*, not by assumption: a coordinate
column is stored as scaled integers only when ``round(x * 10^p) / 10^p``
reproduces every float64 bit-exactly (true for decimal-precision GPS
data, the common case) — otherwise the raw float64 bytes are kept.

The class duck-types the SSTable run interface (``scan`` / ``get`` /
``holds_any`` / ``might_contain`` / ``size_bytes`` / telemetry
counters), so LSM merges, region scans, occupancy checks, caches, the
resilient executor and fault injection all work over mixed run stacks
unchanged.
"""

from __future__ import annotations

import bisect
import mmap
import os
import struct
import threading
import zlib
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import CorruptSegmentError, KVStoreError
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.memtable import TOMBSTONE, Entry

import numpy as np

MAGIC = b"RSG1"
VERSION = 1
_HEADER = struct.Struct(">4sBBHQQ")  # magic, version, flags, pad, count, index offset
_BLOCK_META = struct.Struct(">QIIBIQ")  # offset, length, entries, codec, crc, logical
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")

#: block codecs
CODEC_RAW = 0  #: zlib over a plain (key, flag, value) record stream
CODEC_TRAJ = 1  #: columnar trajectory layout (see module docstring)

#: points sub-codecs inside a TRAJ block
_POINTS_QUANT = 0
_POINTS_RAW = 1

#: covering-box modes inside a TRAJ block (no other mode is read)
_BOXES_CHORD = 0  #: rebuild with chord_frame
_BOXES_EXPLICIT = 2  #: stored verbatim

#: trajectory-id modes inside a TRAJ block
_TID_INT_KEY = 0  #: tid is the row-key suffix (integer encoding)
_TID_STRING_KEY = 1  #: tid is the third '#' field (string encoding)
_TID_EXPLICIT = 2  #: stored verbatim

#: target uncompressed payload bytes per block.  Small blocks are what
#: make lazy materialisation selective (a cold query decodes only the
#: key ranges it scans); 16 KiB measured best on the cold
#: time-to-first-answer protocol while keeping the compression ratio
#: comfortably above the 3x gate (finer blocks reset the per-block
#: codecs too often, coarser ones decode bytes no query asked for).
DEFAULT_BLOCK_LOGICAL_BYTES = 16 * 1024

#: decimal scales tried for lossless coordinate quantisation
_QUANT_DECIMALS = (5, 6, 7, 4, 3)

_INT_KEY_PREFIX = 9  # salt byte + 8-byte big-endian index value


# ----------------------------------------------------------------------
# Small codecs
# ----------------------------------------------------------------------
def _zigzag(values: np.ndarray) -> np.ndarray:
    """Signed int64 -> unsigned zigzag (small magnitudes stay small)."""
    return ((values << 1) ^ (values >> 63)).astype(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.uint64)
    return ((v >> np.uint64(1)).astype(np.int64)) ^ -(
        (v & np.uint64(1)).astype(np.int64)
    )


def _transpose_compress(arr_u32: np.ndarray) -> bytes:
    """Byte-transpose a u32 array then zlib (groups similar bytes)."""
    planes = arr_u32.astype(">u4").view(np.uint8).reshape(-1, 4)
    return zlib.compress(planes.T.tobytes(), 6)


def _transpose_decompress(data: bytes, count: int) -> np.ndarray:
    planes = np.frombuffer(zlib.decompress(data), np.uint8).reshape(4, count)
    return planes.T.copy().view(">u4").reshape(count).astype(np.uint32)


def _pack_stream(raw: bytes) -> bytes:
    comp = zlib.compress(raw, 6)
    return _U32.pack(len(comp)) + comp


def _read_stream(payload: memoryview, offset: int) -> Tuple[bytes, int]:
    (comp_len,) = _U32.unpack_from(payload, offset)
    offset += 4
    raw = zlib.decompress(payload[offset : offset + comp_len])
    return raw, offset + comp_len


def _pack_raw_stream(raw: bytes) -> bytes:
    """A stream whose bytes are already compressed (length-prefixed)."""
    return _U32.pack(len(raw)) + raw


# ----------------------------------------------------------------------
# RAW block codec (arbitrary entries, tombstones included)
# ----------------------------------------------------------------------
def _encode_raw_block(keys: Sequence[bytes], values: Sequence[object]) -> bytes:
    parts: List[bytes] = []
    for key, value in zip(keys, values):
        if value is TOMBSTONE:
            parts.append(_U32.pack(len(key)) + b"\x01" + _U32.pack(0) + key)
        else:
            data = bytes(value)  # type: ignore[arg-type]
            parts.append(
                _U32.pack(len(key)) + b"\x00" + _U32.pack(len(data)) + key + data
            )
    return zlib.compress(b"".join(parts), 6)


def _decode_raw_block(
    payload: bytes, n_entries: int
) -> Tuple[List[bytes], List[object]]:
    plain = zlib.decompress(payload)
    keys: List[bytes] = []
    values: List[object] = []
    offset = 0
    for _ in range(n_entries):
        if offset + 9 > len(plain):
            raise CorruptSegmentError("segment block entry past end")
        (key_len,) = _U32.unpack_from(plain, offset)
        flag = plain[offset + 4]
        (val_len,) = _U32.unpack_from(plain, offset + 5)
        offset += 9
        if offset + key_len + val_len > len(plain):
            raise CorruptSegmentError("segment block entry past end")
        keys.append(plain[offset : offset + key_len])
        offset += key_len
        if flag:
            values.append(TOMBSTONE)
        else:
            values.append(plain[offset : offset + val_len])
            offset += val_len
    if offset != len(plain):
        raise CorruptSegmentError("trailing bytes in segment block")
    return keys, values


# ----------------------------------------------------------------------
# TRAJ block codec (columnar trajectory rows)
# ----------------------------------------------------------------------
def _split_trajectory_value(value: bytes):
    """Split one codec row blob into its columns; a row whose framing
    :func:`repro.core.codec.read_head` rejects raises ``KVStoreError``.

    Returns ``(points_f64, rep_u32, boxes_bytes, tid_bytes)`` where
    ``points_f64`` is the native-endian float64 copy of the point
    coordinates (in x0,y0,x1,y1,... order).
    """
    from repro.core.codec import read_head

    _, _, _, n_points, n_rep, n_boxes = read_head(value)
    reps_at = 8 + 16 * n_points
    boxes_at = reps_at + 4 * n_rep + 4
    tid_at = boxes_at + 64 * n_boxes + 2
    points = np.frombuffer(value, ">f8", 2 * n_points, 4).astype(np.float64)
    reps = np.frombuffer(value, ">u4", n_rep, reps_at).astype(np.uint32)
    return points, reps, value[boxes_at : tid_at - 2], value[tid_at:]


def _tid_from_key(key: bytes, mode: int) -> Optional[bytes]:
    if mode == _TID_INT_KEY:
        return key[_INT_KEY_PREFIX:] if len(key) >= _INT_KEY_PREFIX else None
    try:
        _, _, tid = key[1:].split(b"#", 2)
    except ValueError:
        return None
    return tid


def _cover_chords(
    pts: np.ndarray, los: np.ndarray, his: np.ndarray
) -> np.ndarray:
    """Vectorised ``dp_features.chord_frame`` over many chords of ``pts``.

    ``los``/``his`` are inclusive point-index ranges, one per chord
    (``lo == hi`` is the degenerate single-point box).  Box rebuild
    dominates cold block decodes, so the per-chord scalar loop is
    replaced with one reduceat pass over all chords.  The arithmetic
    mirrors ``chord_frame`` operation for operation — same order,
    ``math.hypot`` for the chord norm (CPython's hypot is not libm's),
    and a ``+ 0.0`` on every extent to normalise ``-0.0`` the way the
    scalar comparisons against the ``0.0`` start do — so the output is
    bit-identical and the encoder's verification pass keeps choosing
    the compact chord mode.

    Returns an ``(n_chords, 8)`` float64 array in the ``dp-mbrs``
    column's byte order (``codec.encode_row``).
    """
    import math

    first = pts[los]
    delta = pts[his] - first
    norms = np.array(
        [math.hypot(dx, dy) for dx, dy in delta.tolist()], dtype=np.float64
    )
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    ux = np.where(zero, 1.0, delta[:, 0] / safe)
    uy = np.where(zero, 0.0, delta[:, 1] / safe)
    chord = np.where(zero, 0.0, norms)

    lengths = his - los + 1
    starts = np.cumsum(lengths) - lengths
    cid = np.repeat(np.arange(len(los)), lengths)
    idx = np.arange(int(lengths.sum())) - starts[cid] + los[cid]
    rx = pts[idx, 0] - first[cid, 0]
    ry = pts[idx, 1] - first[cid, 1]
    along = rx * ux[cid] + ry * uy[cid]
    perp = -rx * uy[cid] + ry * ux[cid]

    boxes = np.empty((len(los), 8), dtype=np.float64)
    boxes[:, 0] = first[:, 0]
    boxes[:, 1] = first[:, 1]
    boxes[:, 2] = ux
    boxes[:, 3] = uy
    boxes[:, 4] = np.maximum(np.maximum.reduceat(along, starts), chord) + 0.0
    boxes[:, 5] = np.minimum.reduceat(along, starts) + 0.0
    boxes[:, 6] = np.minimum.reduceat(perp, starts) + 0.0
    boxes[:, 7] = np.maximum.reduceat(perp, starts) + 0.0
    return boxes


def _choose_quantisation(flat: np.ndarray) -> Optional[Tuple[int, np.ndarray]]:
    """Smallest decimal scale that round-trips every float bit-exactly.

    Returns ``(decimals, int64 quantised values)`` or ``None`` when the
    data is not decimal-precision (full-entropy floats stay raw).
    """
    if len(flat) == 0:
        return None
    if not np.all(np.isfinite(flat)):
        return None
    for decimals in sorted(_QUANT_DECIMALS):
        scale = float(10.0**decimals)
        q = np.round(flat * scale)
        if np.any(np.abs(q) >= 2.0**53):
            continue
        qi = q.astype(np.int64)
        back = qi.astype(np.float64) / scale
        # Bit-level comparison: -0.0/NaN oddities must not slip through.
        if np.array_equal(back.view(np.int64), flat.view(np.int64)):
            return decimals, qi
    return None


def _encode_points_stream(
    all_points: np.ndarray,
) -> Tuple[int, int, bytes]:
    """Encode the concatenated coordinate column.

    Quantised path: per-axis delta over the whole block (row boundaries
    ignored — the decoder cumsums globally), zigzag to u32, byte
    transpose, zlib.  Raw path: the big-endian float64 bytes, zlib.
    Returns ``(sub_codec, decimals, stream_bytes)``.
    """
    chosen = _choose_quantisation(all_points)
    if chosen is not None:
        decimals, qi = chosen
        pairs = qi.reshape(-1, 2)
        deltas = np.empty_like(pairs)
        deltas[0] = pairs[0]
        np.subtract(pairs[1:], pairs[:-1], out=deltas[1:])
        zz = _zigzag(deltas.reshape(-1))
        if np.all(zz < 2**32):
            stream = _pack_raw_stream(_transpose_compress(zz.astype(np.uint32)))
            return _POINTS_QUANT, decimals, stream
    raw = all_points.astype(">f8").tobytes()
    return _POINTS_RAW, 0, _pack_stream(raw)


def _decode_points_stream(
    payload: memoryview, offset: int, sub_codec: int, decimals: int, n_total: int
) -> Tuple[np.ndarray, int]:
    """Inverse of :func:`_encode_points_stream` -> (flat float64, offset)."""
    if sub_codec == _POINTS_QUANT:
        (comp_len,) = _U32.unpack_from(payload, offset)
        offset += 4
        zz = _transpose_decompress(
            payload[offset : offset + comp_len], 2 * n_total
        )
        offset += comp_len
        deltas = _unzigzag(zz).reshape(-1, 2)
        qi = np.cumsum(deltas, axis=0, dtype=np.int64)
        scale = float(10.0**decimals)
        return qi.reshape(-1).astype(np.float64) / scale, offset
    raw, offset = _read_stream(payload, offset)
    return np.frombuffer(raw, ">f8", 2 * n_total).astype(np.float64), offset


def _encode_traj_block(
    keys: Sequence[bytes],
    values: Sequence[bytes],
    box_codec: int,
    tid_mode: int,
    rows,
) -> bytes:
    n_rows = len(keys)
    # --- keys: front-coded -------------------------------------------
    key_parts: List[bytes] = []
    prev = b""
    for key in keys:
        shared = 0
        limit = min(len(prev), len(key))
        while shared < limit and prev[shared] == key[shared]:
            shared += 1
        suffix = key[shared:]
        key_parts.append(_U32.pack(shared) + _U32.pack(len(suffix)) + suffix)
        prev = key
    keys_stream = _pack_stream(b"".join(key_parts))

    # --- per-row counts ----------------------------------------------
    n_points = np.fromiter(
        (len(r[0]) // 2 for r in rows), np.uint32, count=n_rows
    )
    n_rep = np.fromiter((len(r[1]) for r in rows), np.uint32, count=n_rows)
    counts_stream = _pack_raw_stream(
        _transpose_compress(np.concatenate([n_points, n_rep]))
    )

    # --- points -------------------------------------------------------
    all_points = (
        np.concatenate([r[0] for r in rows])
        if n_rows
        else np.zeros(0, np.float64)
    )
    points_codec, decimals, points_stream = _encode_points_stream(all_points)

    # --- representative indexes: per-row first + positive deltas ------
    rep_parts: List[np.ndarray] = []
    for r in rows:
        reps = r[1].astype(np.int64)
        if len(reps):
            deltas = np.empty(len(reps), np.int64)
            deltas[0] = reps[0]
            np.subtract(reps[1:], reps[:-1], out=deltas[1:])
            rep_parts.append(deltas)
    rep_flat = (
        np.concatenate(rep_parts) if rep_parts else np.zeros(0, np.int64)
    )
    if np.any(rep_flat < 0) or np.any(rep_flat >= 2**32):
        raise KVStoreError("representative indexes not delta-encodable")
    reps_stream = _pack_raw_stream(
        _transpose_compress(rep_flat.astype(np.uint32))
    )

    # --- boxes (only when not rebuildable) ----------------------------
    if box_codec == _BOXES_EXPLICIT:
        n_boxes = np.fromiter(
            (len(r[2]) // 64 for r in rows), np.uint32, count=n_rows
        )
        boxes_stream = _pack_raw_stream(
            _transpose_compress(n_boxes)
        ) + _pack_stream(b"".join(r[2] for r in rows))
    else:
        boxes_stream = b""

    # --- trajectory ids (only when not derivable from keys) -----------
    if tid_mode == _TID_EXPLICIT:
        tids_stream = _pack_stream(
            b"".join(_U32.pack(len(r[3])) + r[3] for r in rows)
        )
    else:
        tids_stream = b""

    header = struct.pack(
        ">IBBBB", n_rows, points_codec, decimals, box_codec, tid_mode
    )
    return (
        header
        + keys_stream
        + counts_stream
        + points_stream
        + reps_stream
        + boxes_stream
        + tids_stream
    )


def _decode_traj_block(
    payload_bytes: bytes, n_entries: int
) -> Tuple[List[bytes], List[object]]:
    payload = memoryview(payload_bytes)
    try:
        n_rows, points_codec, decimals, box_codec, tid_mode = struct.unpack_from(
            ">IBBBB", payload, 0
        )
        offset = 8
        if n_rows != n_entries:
            raise CorruptSegmentError("segment block row count mismatch")
        if box_codec not in (_BOXES_CHORD, _BOXES_EXPLICIT):
            # mode 1 held min-area boxes, a construction since removed
            raise CorruptSegmentError(
                f"segment block has covering-box mode {box_codec}; only "
                f"{_BOXES_CHORD} (chord) and {_BOXES_EXPLICIT} (explicit) "
                f"are readable"
            )

        keys_raw, offset = _read_stream(payload, offset)
        keys: List[bytes] = []
        prev = b""
        key_off = 0
        for _ in range(n_rows):
            prefix_len, suffix_len = struct.unpack_from(">II", keys_raw, key_off)
            key_off += 8
            key = prev[:prefix_len] + keys_raw[key_off : key_off + suffix_len]
            key_off += suffix_len
            keys.append(key)
            prev = key

        (comp_len,) = _U32.unpack_from(payload, offset)
        offset += 4
        counts = _transpose_decompress(
            payload[offset : offset + comp_len], 2 * n_rows
        )
        offset += comp_len
        n_points = counts[:n_rows].astype(np.int64)
        n_rep = counts[n_rows:].astype(np.int64)
        n_total = int(n_points.sum())

        flat_points, offset = _decode_points_stream(
            payload, offset, points_codec, decimals, n_total
        )
        point_bytes = flat_points.astype(">f8").tobytes()
        point_offsets = np.zeros(n_rows + 1, np.int64)
        np.cumsum(n_points, out=point_offsets[1:])

        (comp_len,) = _U32.unpack_from(payload, offset)
        offset += 4
        total_rep = int(n_rep.sum())
        rep_deltas = _transpose_decompress(
            payload[offset : offset + comp_len], total_rep
        ).astype(np.int64)
        offset += comp_len
        rep_offsets = np.zeros(n_rows + 1, np.int64)
        np.cumsum(n_rep, out=rep_offsets[1:])
        # Segmented cumsum: per-row representative indexes restored from
        # their deltas in one pass over the whole block.
        rep_running = np.cumsum(rep_deltas)
        rep_all = rep_running - np.repeat(
            rep_running[rep_offsets[:-1]] - rep_deltas[rep_offsets[:-1]],
            n_rep,
        )

        if box_codec == _BOXES_EXPLICIT:
            (comp_len,) = _U32.unpack_from(payload, offset)
            offset += 4
            n_boxes = _transpose_decompress(
                payload[offset : offset + comp_len], n_rows
            ).astype(np.int64)
            offset += comp_len
            boxes_raw, offset = _read_stream(payload, offset)
            box_offsets = np.zeros(n_rows + 1, np.int64)
            np.cumsum(n_boxes, out=box_offsets[1:])
        else:
            boxes_raw = b""
            box_offsets = None

        if tid_mode == _TID_EXPLICIT:
            tids_raw, offset = _read_stream(payload, offset)
        else:
            tids_raw = b""
        if offset != len(payload):
            raise CorruptSegmentError("trailing bytes in segment block")

        if box_codec == _BOXES_CHORD and n_rows:
            # One vectorised cover pass over every chord in the block
            # (per-row numpy calls dominate decode otherwise).  Chords
            # never cross rows, so row-local rep indexes shift to
            # global point indexes and slice back apart afterwards.
            n_chords = np.where(n_rep > 1, n_rep - 1, 1)
            chord_offsets = np.zeros(n_rows + 1, np.int64)
            np.cumsum(n_chords, out=chord_offsets[1:])
            row_of = np.repeat(np.arange(n_rows), n_chords)
            k = np.arange(int(chord_offsets[-1])) - chord_offsets[:-1][row_of]
            lo_idx = rep_offsets[:-1][row_of] + k
            hi_idx = np.minimum(lo_idx + 1, rep_offsets[1:][row_of] - 1)
            rep_global = rep_all + np.repeat(point_offsets[:-1], n_rep)
            chord_boxes = _cover_chords(
                flat_points.reshape(-1, 2),
                rep_global[lo_idx],
                rep_global[hi_idx],
            ).astype(">f8").tobytes()
        else:
            chord_boxes = b""
            chord_offsets = None

        values: List[object] = []
        tid_off = 0
        for i in range(n_rows):
            p_lo, p_hi = int(point_offsets[i]), int(point_offsets[i + 1])
            r_lo, r_hi = int(rep_offsets[i]), int(rep_offsets[i + 1])
            reps = rep_all[r_lo:r_hi]
            if tid_mode == _TID_EXPLICIT:
                (tid_len,) = _U32.unpack_from(tids_raw, tid_off)
                tid_off += 4
                tid = tids_raw[tid_off : tid_off + tid_len]
                tid_off += tid_len
            else:
                tid = _tid_from_key(keys[i], tid_mode)
                if tid is None:
                    raise CorruptSegmentError(
                        "segment row key does not carry its trajectory id"
                    )
            if box_codec == _BOXES_EXPLICIT:
                boxes = boxes_raw[
                    64 * int(box_offsets[i]) : 64 * int(box_offsets[i + 1])
                ]
            else:
                boxes = chord_boxes[
                    64 * int(chord_offsets[i]) : 64 * int(chord_offsets[i + 1])
                ]
            values.append(
                _U32.pack(p_hi - p_lo)
                + point_bytes[16 * p_lo : 16 * p_hi]
                + _U32.pack(r_hi - r_lo)
                + reps.astype(">u4").tobytes()
                + _U32.pack(len(boxes) // 64)
                + boxes
                + _U16.pack(len(tid))
                + tid
            )
        return keys, values
    except CorruptSegmentError:
        raise
    except Exception as exc:
        raise CorruptSegmentError(f"corrupt segment block: {exc}") from exc


def _decode_block(
    codec: int, payload: bytes, n_entries: int
) -> Tuple[List[bytes], List[object]]:
    if codec == CODEC_RAW:
        return _decode_raw_block(payload, n_entries)
    if codec == CODEC_TRAJ:
        return _decode_traj_block(payload, n_entries)
    raise CorruptSegmentError(f"unknown segment block codec {codec}")


def _encode_block(
    keys: Sequence[bytes], values: Sequence[object]
) -> Tuple[int, bytes]:
    """Encode one block, choosing the best codec that verifies.

    The TRAJ encode is attempted with rebuildable chord boxes, then
    with explicit boxes, and every candidate payload is decoded and
    compared byte-for-byte with the input before being accepted — a row
    whose stored boxes are not its chord boxes fails that comparison.
    Anything that fails drops to the RAW codec, which round-trips
    arbitrary bytes by construction.
    """
    if all(value is not TOMBSTONE for value in values):
        try:
            rows = [_split_trajectory_value(v) for v in values]  # type: ignore[arg-type]
        except (KVStoreError, struct.error):
            rows = None
        if rows is not None:
            tid_mode = _TID_EXPLICIT
            for mode in (_TID_INT_KEY, _TID_STRING_KEY):
                if all(
                    _tid_from_key(k, mode) == r[3]
                    for k, r in zip(keys, rows)
                ):
                    tid_mode = mode
                    break
            for box_codec in (_BOXES_CHORD, _BOXES_EXPLICIT):
                try:
                    payload = _encode_traj_block(
                        keys, values, box_codec, tid_mode, rows
                    )
                    got_keys, got_values = _decode_traj_block(
                        payload, len(keys)
                    )
                    if got_keys == list(keys) and got_values == list(values):
                        return CODEC_TRAJ, payload
                except Exception:
                    continue
    return CODEC_RAW, _encode_raw_block(keys, values)


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def build_segment_bytes(
    entries: Iterable[Entry],
    block_logical_bytes: Optional[int] = None,
) -> bytes:
    """Serialise sorted ``(key, value | TOMBSTONE)`` entries to a segment.

    Entries must arrive in strictly increasing key order (the order
    every run scan produces).

    ``block_logical_bytes`` defaults to ``DEFAULT_BLOCK_LOGICAL_BYTES``
    at call time (late-bound so the knob is patchable in experiments).
    """
    if block_logical_bytes is None:
        block_logical_bytes = DEFAULT_BLOCK_LOGICAL_BYTES
    keys: List[bytes] = []
    values: List[object] = []
    for key, value in entries:
        key = bytes(key)
        if keys and keys[-1] >= key:
            raise KVStoreError(
                f"segment entries out of order at key {key!r}"
            )
        keys.append(key)
        values.append(value if value is TOMBSTONE else bytes(value))

    bloom = BloomFilter(max(1, len(keys)))
    for key in keys:
        bloom.add(key)

    blocks: List[bytes] = []
    metas: List[bytes] = []
    offset = _HEADER.size
    lo = 0
    while lo < len(keys):
        logical = 0
        hi = lo
        while hi < len(keys) and (hi == lo or logical < block_logical_bytes):
            logical += len(keys[hi])
            if values[hi] is not TOMBSTONE:
                logical += len(values[hi])  # type: ignore[arg-type]
            hi += 1
        codec, payload = _encode_block(keys[lo:hi], values[lo:hi])
        metas.append(
            _BLOCK_META.pack(
                offset,
                len(payload),
                hi - lo,
                codec,
                zlib.crc32(payload),
                logical,
            )
            + _U32.pack(len(keys[lo]))
            + keys[lo]
            + _U32.pack(len(keys[hi - 1]))
            + keys[hi - 1]
        )
        blocks.append(payload)
        offset += len(payload)
        lo = hi

    bloom_bytes = bloom.to_bytes()
    index = (
        _U32.pack(len(metas))
        + b"".join(metas)
        + _U32.pack(len(bloom_bytes))
        + bloom_bytes
    )
    index += _U32.pack(zlib.crc32(index))
    header = _HEADER.pack(MAGIC, VERSION, 0, 0, len(keys), offset)
    return header + b"".join(blocks) + index


def write_segment(
    path: str,
    entries: Iterable[Entry],
    block_logical_bytes: Optional[int] = None,
) -> "Segment":
    """Write a segment file and open it (mmap-backed)."""
    data = build_segment_bytes(entries, block_logical_bytes)
    with open(path, "wb") as fh:
        fh.write(data)
    return Segment.open(path)


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
class _BlockMeta:
    __slots__ = (
        "offset",
        "length",
        "n_entries",
        "codec",
        "crc",
        "logical_bytes",
        "first_key",
        "last_key",
    )

    def __init__(self, offset, length, n_entries, codec, crc, logical, first, last):
        self.offset = offset
        self.length = length
        self.n_entries = n_entries
        self.codec = codec
        self.crc = crc
        self.logical_bytes = logical
        self.first_key = first
        self.last_key = last


class Segment:
    """An immutable mmap-backed compact run (SSTable-duck-compatible).

    Opening parses only the header, block index and bloom filter; entry
    blocks are decoded lazily on first touch and cached, so a query
    that scans three blocks of a thousand-block segment pays for three.
    ``size_bytes`` is the real on-disk footprint (the file size), and
    ``logical_bytes`` the uncompressed entry payload it represents —
    their ratio is the compression the advisor and registry report.
    """

    def __init__(self, path: str, fileobj, mm: mmap.mmap):
        self.path = path
        self._file = fileobj
        self._mmap = mm
        self._view = memoryview(mm)
        #: decoded block cache: index -> (keys, values)
        self._blocks: dict = {}
        self._lock = threading.Lock()
        # Run-level telemetry, same names as SSTable's.
        self.reads = 0
        self.bloom_negatives = 0
        self.bloom_false_positives = 0
        #: blocks decoded so far / physical + logical bytes they cost
        self.blocks_materialized = 0
        self.bytes_compressed_read = 0
        self.bytes_logical_read = 0
        #: optional zero-arg callable returning the owning table's
        #: :class:`~repro.kvstore.metrics.IOMetrics` sink (``None`` once
        #: the table is gone)
        self.metrics_provider = None

        try:
            self._parse(path)
        except Exception:
            # The exception traceback keeps this frame (and ``self``)
            # alive, so the exported memoryview must be released here
            # or the caller's ``mmap.close()`` hits BufferError.
            self._view.release()
            raise

    def _parse(self, path: str) -> None:
        data = self._view
        if len(data) < _HEADER.size + 4:
            raise CorruptSegmentError(f"segment file truncated: {path}")
        magic, version, _flags, _pad, count, index_offset = _HEADER.unpack_from(
            data, 0
        )
        if magic != MAGIC:
            raise CorruptSegmentError(f"bad segment magic {bytes(magic)!r}")
        if version != VERSION:
            raise CorruptSegmentError(f"unsupported segment version {version}")
        if index_offset + 8 > len(data):
            raise CorruptSegmentError("segment index offset past end of file")
        index = bytes(data[index_offset:-4])
        (index_crc,) = _U32.unpack_from(data, len(data) - 4)
        if zlib.crc32(index) != index_crc:
            raise CorruptSegmentError("segment index checksum mismatch")

        self.entry_count = count
        self._metas: List[_BlockMeta] = []
        try:
            (n_blocks,) = _U32.unpack_from(index, 0)
            pos = 4
            for _ in range(n_blocks):
                offset, length, n_entries, codec, crc, logical = (
                    _BLOCK_META.unpack_from(index, pos)
                )
                pos += _BLOCK_META.size
                (first_len,) = _U32.unpack_from(index, pos)
                pos += 4
                first = index[pos : pos + first_len]
                pos += first_len
                (last_len,) = _U32.unpack_from(index, pos)
                pos += 4
                last = index[pos : pos + last_len]
                pos += last_len
                if offset + length > index_offset:
                    raise CorruptSegmentError(
                        "segment block extends into the index"
                    )
                self._metas.append(
                    _BlockMeta(
                        offset, length, n_entries, codec, crc, logical, first, last
                    )
                )
            (bloom_len,) = _U32.unpack_from(index, pos)
            pos += 4
            self.bloom = BloomFilter.from_bytes(index[pos : pos + bloom_len])
            pos += bloom_len
            if pos != len(index):
                raise CorruptSegmentError("trailing bytes in segment index")
        except (struct.error, KVStoreError) as exc:
            raise CorruptSegmentError(f"corrupt segment index: {exc}") from exc
        if sum(m.n_entries for m in self._metas) != count:
            raise CorruptSegmentError("segment entry count mismatch")
        self._first_keys = [m.first_key for m in self._metas]
        self.size_bytes = len(data)
        self.logical_bytes = sum(m.logical_bytes for m in self._metas)

    # ------------------------------------------------------------------
    @staticmethod
    def open(path: str, metrics_provider=None) -> "Segment":
        fh = open(path, "rb")
        try:
            size = os.fstat(fh.fileno()).st_size
            if size == 0:
                raise CorruptSegmentError(f"segment file empty: {path}")
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except Exception:
            fh.close()
            raise
        try:
            segment = Segment(path, fh, mm)
        except Exception:
            mm.close()
            fh.close()
            raise
        segment.metrics_provider = metrics_provider
        return segment

    def close(self) -> None:
        self._blocks.clear()
        try:
            self._view.release()
            self._mmap.close()
        finally:
            self._file.close()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.entry_count

    @property
    def num_blocks(self) -> int:
        return len(self._metas)

    @property
    def compression_ratio(self) -> float:
        return self.logical_bytes / self.size_bytes if self.size_bytes else 0.0

    # ------------------------------------------------------------------
    def _block(self, i: int) -> Tuple[List[bytes], List[object]]:
        """Materialise block ``i`` (CRC-checked, decoded, cached)."""
        cached = self._blocks.get(i)
        if cached is not None:
            return cached
        with self._lock:
            cached = self._blocks.get(i)
            if cached is not None:
                return cached
            meta = self._metas[i]
            payload = bytes(
                self._view[meta.offset : meta.offset + meta.length]
            )
            if zlib.crc32(payload) != meta.crc:
                raise CorruptSegmentError(
                    f"segment block {i} checksum mismatch in {self.path}"
                )
            block = _decode_block(meta.codec, payload, meta.n_entries)
            self._blocks[i] = block
            self.blocks_materialized += 1
            self.bytes_compressed_read += meta.length
            self.bytes_logical_read += meta.logical_bytes
            provider = self.metrics_provider
            metrics = provider() if provider is not None else None
            if metrics is not None:
                metrics.segment_blocks_materialized += 1
                metrics.segment_bytes_compressed += meta.length
                metrics.segment_bytes_logical += meta.logical_bytes
            return block

    def _block_index_for(self, key: bytes) -> int:
        """Index of the block that could hold ``key`` (or -1)."""
        i = bisect.bisect_right(self._first_keys, key) - 1
        if i < 0 or key > self._metas[i].last_key:
            return -1
        return i

    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[object]:
        """Value, ``TOMBSTONE``, or ``None``; bloom-gated block probe."""
        key = bytes(key)
        self.reads += 1
        if not self.bloom.might_contain(key):
            self.bloom_negatives += 1
            return None
        i = self._block_index_for(key)
        if i >= 0:
            keys, values = self._block(i)
            j = bisect.bisect_left(keys, key)
            if j < len(keys) and keys[j] == key:
                return values[j]
        self.bloom_false_positives += 1
        return None

    def might_contain(self, key: bytes) -> bool:
        return self.bloom.might_contain(bytes(key))

    def scan(
        self, start: Optional[bytes] = None, stop: Optional[bytes] = None
    ) -> Iterator[Entry]:
        """Entries with ``start <= key < stop``, tombstones included.

        Only blocks overlapping the range are materialised.
        """
        if not self._metas:
            return
        lo_block = 0
        if start is not None:
            start = bytes(start)
            lo_block = max(0, bisect.bisect_right(self._first_keys, start) - 1)
        if stop is not None:
            stop = bytes(stop)
        for i in range(lo_block, len(self._metas)):
            meta = self._metas[i]
            if stop is not None and meta.first_key >= stop:
                return
            if start is not None and meta.last_key < start:
                continue
            keys, values = self._block(i)
            lo = 0 if start is None else bisect.bisect_left(keys, start)
            hi = len(keys) if stop is None else bisect.bisect_left(keys, stop)
            for j in range(lo, hi):
                yield keys[j], values[j]

    def holds_any(self, start: Optional[bytes], stop: Optional[bytes]) -> bool:
        """Whether a key, live or tombstone, lies in ``[start, stop)``.

        The block index answers unless ``start`` falls strictly inside
        a block.  Then that block is bisected: it is the first block a
        scan of the range materialises, so checking before scanning
        decodes no block the scan alone would not.
        """
        metas = self._metas
        if not metas:
            return False
        if start is None:
            first = metas[0].first_key
        else:
            i = max(0, bisect.bisect_right(self._first_keys, start) - 1)
            meta = metas[i]
            if meta.last_key < start:
                if i + 1 == len(metas):
                    return False
                first = metas[i + 1].first_key
            elif meta.first_key >= start:
                first = meta.first_key
            else:
                keys, _ = self._block(i)
                first = keys[bisect.bisect_left(keys, start)]
        return stop is None or first < stop
