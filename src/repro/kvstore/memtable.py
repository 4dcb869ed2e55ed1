"""Sorted in-memory write buffer.

A memtable keeps the newest version of each mutation, ordered by key,
until it is flushed into an immutable SSTable.  Deletions are recorded
as tombstones so a flushed delete can still shadow an older SSTable
entry; tombstones are only dropped during a full compaction.

Implementation: a sorted key list maintained with :mod:`bisect` plus a
dict for O(1) point reads.  Updates to existing keys avoid the O(n)
insert, so bulk loads of mostly-fresh keys are the only O(n log n)-ish
path — the same asymmetry a skip-list memtable has in practice.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import KVStoreError

#: marker distinguishing "deleted" from "absent"
TOMBSTONE = object()

Entry = Tuple[bytes, object]  # value bytes or TOMBSTONE


class MemTable:
    """A mutable, sorted map from byte keys to values-or-tombstones."""

    __slots__ = ("_keys", "_data", "_approx_bytes")

    def __init__(self) -> None:
        self._keys: List[bytes] = []
        self._data: Dict[bytes, object] = {}
        self._approx_bytes = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def approximate_size(self) -> int:
        """Rough payload size in bytes, used for flush thresholds."""
        return self._approx_bytes

    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise KVStoreError(f"keys must be bytes, got {type(key).__name__}")
        if not isinstance(value, (bytes, bytearray)):
            raise KVStoreError(f"values must be bytes, got {type(value).__name__}")
        key = bytes(key)
        self._upsert(key, bytes(value), len(key) + len(value))

    def delete(self, key: bytes) -> None:
        """Record a tombstone for ``key``."""
        key = bytes(key)
        self._upsert(key, TOMBSTONE, len(key))

    def _upsert(self, key: bytes, value: object, size: int) -> None:
        if key in self._data:
            old = self._data[key]
            self._approx_bytes -= len(key) + (
                len(old) if isinstance(old, (bytes, bytearray)) else 0
            )
        else:
            bisect.insort(self._keys, key)
        self._data[key] = value
        self._approx_bytes += size

    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[object]:
        """The stored value, ``TOMBSTONE``, or ``None`` when absent."""
        return self._data.get(bytes(key))

    def scan(
        self, start: Optional[bytes] = None, stop: Optional[bytes] = None
    ) -> Iterator[Entry]:
        """Entries with ``start <= key < stop``, tombstones included.

        Tombstones must flow to the merge so deletions shadow older
        SSTables; the caller drops them at the top of the read path.
        """
        lo = 0 if start is None else bisect.bisect_left(self._keys, bytes(start))
        hi = len(self._keys) if stop is None else bisect.bisect_left(
            self._keys, bytes(stop)
        )
        for i in range(lo, hi):
            key = self._keys[i]
            yield key, self._data[key]

    def holds_any(self, start: Optional[bytes], stop: Optional[bytes]) -> bool:
        """Whether a key, live or tombstone, lies in ``[start, stop)``."""
        keys = self._keys
        i = 0 if start is None else bisect.bisect_left(keys, start)
        return i < len(keys) and (stop is None or keys[i] < stop)

    def items(self) -> Iterator[Entry]:
        """All entries in key order (flush path)."""
        return self.scan()

    def clear(self) -> None:
        self._keys.clear()
        self._data.clear()
        self._approx_bytes = 0
