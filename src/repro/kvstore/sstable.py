"""Immutable sorted string tables.

An SSTable is the in-memory form of a sorted run of ``(key, value |
tombstone)`` entries produced by flushing a memtable or by compaction.
Point reads consult a per-table bloom filter first and then
binary-search the key array; scans bisect to the start key.  On disk a
run is a compact segment (:mod:`~repro.kvstore.segment`), the HFile
role in HBase.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional

from repro.exceptions import KVStoreError
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.memtable import TOMBSTONE, Entry

# The byte-size model of a run: a fixed per-run overhead, per-entry
# key/value lengths and tombstone flag plus the payload, and the bloom
# filter's header plus bits.
_RUN_OVERHEAD = 21
_ENTRY_OVERHEAD = 9
_BLOOM_HEADER = 18


class SSTable:
    """An immutable sorted run with a bloom filter."""

    __slots__ = (
        "_keys",
        "_values",
        "bloom",
        "size_bytes",
        "reads",
        "bloom_negatives",
        "bloom_false_positives",
    )

    def __init__(self, keys: List[bytes], values: List[object]):
        if len(keys) != len(values):
            raise KVStoreError("key/value count mismatch")
        for i in range(1, len(keys)):
            if keys[i - 1] >= keys[i]:
                raise KVStoreError(
                    f"SSTable entries out of order at position {i}"
                )
        self._keys = keys
        self._values = values
        self.bloom = BloomFilter(max(1, len(keys)))
        # Telemetry: point reads against this run, reads the bloom
        # filter short-circuited, and reads it let through that then
        # missed (the false-positive rate the tuning advisor reports).
        self.reads = 0
        self.bloom_negatives = 0
        self.bloom_false_positives = 0
        # Feeds the flush/compaction byte accounting and write
        # amplification, so it must not change between versions that
        # are compared against each other.
        self.size_bytes = _RUN_OVERHEAD
        for key, value in zip(keys, values):
            self.bloom.add(key)
            self.size_bytes += _ENTRY_OVERHEAD + len(key)
            if value is not TOMBSTONE:
                self.size_bytes += len(value)  # type: ignore[arg-type]
        self.size_bytes += _BLOOM_HEADER + (self.bloom.num_bits + 7) // 8

    # ------------------------------------------------------------------
    @staticmethod
    def from_entries(entries: Iterable[Entry]) -> "SSTable":
        """Build from an iterable already sorted by key."""
        keys: List[bytes] = []
        values: List[object] = []
        for key, value in entries:
            keys.append(bytes(key))
            values.append(value)
        return SSTable(keys, values)

    def __len__(self) -> int:
        return len(self._keys)

    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[object]:
        """Value, ``TOMBSTONE``, or ``None``; bloom-gated binary search."""
        key = bytes(key)
        self.reads += 1
        if not self.bloom.might_contain(key):
            self.bloom_negatives += 1
            return None
        i = bisect.bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return self._values[i]
        self.bloom_false_positives += 1
        return None

    def might_contain(self, key: bytes) -> bool:
        return self.bloom.might_contain(bytes(key))

    def scan(
        self, start: Optional[bytes] = None, stop: Optional[bytes] = None
    ) -> Iterator[Entry]:
        """Entries with ``start <= key < stop``, tombstones included."""
        lo = 0 if start is None else bisect.bisect_left(self._keys, bytes(start))
        hi = (
            len(self._keys)
            if stop is None
            else bisect.bisect_left(self._keys, bytes(stop))
        )
        for i in range(lo, hi):
            yield self._keys[i], self._values[i]

    def holds_any(self, start: Optional[bytes], stop: Optional[bytes]) -> bool:
        """Whether a key, live or tombstone, lies in ``[start, stop)``."""
        keys = self._keys
        i = 0 if start is None else bisect.bisect_left(keys, start)
        return i < len(keys) and (stop is None or keys[i] < stop)
