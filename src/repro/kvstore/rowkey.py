"""Row-key construction (Section IV-E).

The storage schema is ``rowkey = shard + index value + tid``:

* ``shard`` — one salt byte, a hash of the trajectory id modulo the
  shard count, decentralising hot index ranges across regions;
* ``index value`` — the XZ* integer, 8 bytes big-endian so that byte
  order equals numeric order (the property every range scan relies on);
* ``tid`` — the trajectory identifier, UTF-8.

``encode_string_rowkey`` is the TraSS-S variant from Figure 13(c): the
quadrant sequence as a digit string plus a two-digit position code.  It
is byte-order-compatible with lexicographic sequence order but costs
roughly 2x the bytes at resolution 16, which is the storage overhead
the paper quantifies (32% / 27% savings on real data).
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Tuple

from repro.exceptions import KVStoreError

_VALUE_STRUCT = struct.Struct(">q")
VALUE_WIDTH = _VALUE_STRUCT.size  # 8 bytes, as in the paper


def shard_of(tid: str, shards: int) -> int:
    """Deterministic salt for a trajectory id.

    Uses FNV-1a rather than :func:`hash` so the placement is stable
    across processes and runs.
    """
    if shards < 1:
        raise KVStoreError(f"shard count must be >= 1, got {shards}")
    h = 0xCBF29CE484222325
    for byte in tid.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h % shards


def encode_rowkey(shard: int, value: int, tid: str) -> bytes:
    """Binary row key: 1 salt byte + 8-byte big-endian value + tid."""
    if not 0 <= shard <= 0xFF:
        raise KVStoreError(f"shard {shard} out of range 0..255")
    if value < 0:
        raise KVStoreError(f"index value must be non-negative, got {value}")
    return bytes([shard]) + _VALUE_STRUCT.pack(value) + tid.encode("utf-8")

def decode_rowkey(key: bytes) -> Tuple[int, int, str]:
    """Inverse of :func:`encode_rowkey` -> (shard, value, tid)."""
    if len(key) < 1 + VALUE_WIDTH:
        raise KVStoreError(f"row key too short: {key!r}")
    shard = key[0]
    (value,) = _VALUE_STRUCT.unpack_from(key, 1)
    tid = key[1 + VALUE_WIDTH :].decode("utf-8")
    return shard, value, tid


def rowkey_range(shard: int, start_value: int, stop_value: int) -> Tuple[bytes, bytes]:
    """The row-key range covering index values ``[start, stop)`` in a shard.

    The stop key is exclusive, so it is the first key of ``stop_value``
    with an empty tid.
    """
    return rowkey_ranges((shard,), ((start_value, stop_value),))[0]


def rowkey_ranges(
    shards: Iterable[int], value_ranges: Iterable[Tuple[int, int]]
) -> List[Tuple[bytes, bytes]]:
    """:func:`rowkey_range` of every shard and ``(start, stop)`` value
    range, shard-major.  Each value is packed once, not once per shard.
    """
    packed = []
    for start_value, stop_value in value_ranges:
        if start_value >= stop_value:
            raise KVStoreError(
                f"empty value range [{start_value}, {stop_value})"
            )
        packed.append(
            (_VALUE_STRUCT.pack(start_value), _VALUE_STRUCT.pack(stop_value))
        )
    out: List[Tuple[bytes, bytes]] = []
    for shard in shards:
        salt = bytes([shard])
        out.extend([(salt + lo, salt + hi) for lo, hi in packed])
    return out


# ----------------------------------------------------------------------
# String-encoded keys (the TraSS-S baseline of Figure 13)
# ----------------------------------------------------------------------
def encode_string_rowkey(
    shard: int, sequence: str, position_code: int, tid: str
) -> bytes:
    """String row key: salt + quadrant digits + 2-digit code + tid.

    A separator guards against digit/tid ambiguity.  At resolution 16
    this costs 16 (digits) + 2 (code) + 2 (separators) bytes where the
    integer encoding costs 8, which is where the paper's ~2x row-key
    overhead figure comes from.
    """
    if not 0 <= shard <= 0xFF:
        raise KVStoreError(f"shard {shard} out of range 0..255")
    if not 1 <= position_code <= 10:
        raise KVStoreError(f"position code {position_code} out of range 1..10")
    body = f"{sequence}#{position_code:02d}#{tid}"
    return bytes([shard]) + body.encode("utf-8")


def decode_string_rowkey(key: bytes) -> Tuple[int, str, int, str]:
    """Inverse of :func:`encode_string_rowkey`."""
    if len(key) < 1:
        raise KVStoreError(f"row key too short: {key!r}")
    shard = key[0]
    try:
        sequence, code, tid = key[1:].decode("utf-8").split("#", 2)
        return shard, sequence, int(code), tid
    except ValueError:
        raise KVStoreError(f"malformed string row key: {key!r}") from None
