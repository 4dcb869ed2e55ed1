"""Read caching for the key-value store (the multi-tier cache layer).

HBase fronts its store files with a BlockCache; this module provides
the embedded equivalents:

* :class:`LRUCache` — a byte-budgeted LRU over ``bytes -> bytes``
  entries (point reads);
* :class:`ObjectLRUCache` — the same eviction policy over arbitrary
  hashable keys and Python values with an explicit per-entry cost,
  behind a lock so concurrent scan workers can share it.  The scan
  block cache, the decoded-record cache and the pruning-plan cache are
  all instances of it;
* :class:`CachedKVTable` — a table front that serves repeated point
  reads from memory and invalidates through the table's mutation
  ``generation`` (every write bumps it), so even writes that bypass
  the wrapper can never expose a stale cached row.

All caches expose the same accounting surface: ``hits`` / ``misses`` /
``evictions`` / ``invalidations``, a ``hit_rate``, and
``reset_stats()``.  ``clear()`` drops every entry *and* resets the
stats — a cleared cache starts a fresh accounting epoch, so hit rates
never mix measurements across an invalidation boundary.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Hashable, Iterator, Optional, Tuple

from repro.exceptions import KVStoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kvstore.table import KVTable


class _CacheAccounting:
    """Shared hit/miss/eviction/invalidation counters."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def reset_stats(self) -> None:
        """Zero the counters (entries are untouched)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache(_CacheAccounting):
    """A byte-budgeted least-recently-used map from bytes to bytes."""

    def __init__(self, capacity_bytes: int = 16 * 1024 * 1024):
        if capacity_bytes < 1:
            raise KVStoreError(
                f"cache capacity must be >= 1 byte, got {capacity_bytes}"
            )
        super().__init__()
        self.capacity_bytes = capacity_bytes
        self._data: "OrderedDict[bytes, bytes]" = OrderedDict()
        self.current_bytes = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: bytes) -> Optional[bytes]:
        key = bytes(key)
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key: bytes, value: bytes) -> None:
        key, value = bytes(key), bytes(value)
        entry_size = len(key) + len(value)
        if entry_size > self.capacity_bytes:
            return  # larger than the whole cache: not cacheable
        if key in self._data:
            self.current_bytes -= len(key) + len(self._data[key])
            del self._data[key]
        while self.current_bytes + entry_size > self.capacity_bytes:
            old_key, old_value = self._data.popitem(last=False)
            self.current_bytes -= len(old_key) + len(old_value)
            self.evictions += 1
        self._data[key] = value
        self.current_bytes += entry_size

    def invalidate(self, key: bytes) -> None:
        key = bytes(key)
        if key in self._data:
            self.current_bytes -= len(key) + len(self._data[key])
            del self._data[key]
            self.invalidations += 1

    def clear(self) -> None:
        """Drop every entry and start a fresh accounting epoch."""
        self._data.clear()
        self.current_bytes = 0
        self.reset_stats()


class ObjectLRUCache(_CacheAccounting):
    """A cost-budgeted, lock-guarded LRU over arbitrary hashable keys.

    Each :meth:`put` declares its entry's cost (bytes, points — any
    consistent unit); the cache evicts least-recently-used entries to
    stay under ``capacity``.  All operations take an internal lock, so
    one instance can back concurrent scan workers.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise KVStoreError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        super().__init__()
        self.capacity = capacity
        self.current_cost = 0
        self._data: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Hashable, value: Any, cost: int = 1) -> None:
        cost = max(1, int(cost))
        if cost > self.capacity:
            return  # larger than the whole cache: not cacheable
        with self._lock:
            old = self._data.pop(key, None)
            if old is not None:
                self.current_cost -= old[1]
            while self.current_cost + cost > self.capacity:
                _, (_, old_cost) = self._data.popitem(last=False)
                self.current_cost -= old_cost
                self.evictions += 1
            self._data[key] = (value, cost)
            self.current_cost += cost

    def invalidate(self, key: Hashable) -> None:
        with self._lock:
            entry = self._data.pop(key, None)
            if entry is not None:
                self.current_cost -= entry[1]
                self.invalidations += 1

    def clear(self) -> None:
        """Drop every entry and start a fresh accounting epoch."""
        with self._lock:
            self._data.clear()
            self.current_cost = 0
            self.reset_stats()

    def stats(self) -> dict:
        """Counter snapshot (the ``repro stats`` CLI's source)."""
        return {
            "entries": len(self._data),
            "cost": self.current_cost,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


def scan_block_cache(capacity_bytes: int) -> ObjectLRUCache:
    """The LSM scan block cache: materialised merged runs per
    ``(region, key range, generation)``, cost-accounted in row bytes.

    Keys embed the table's mutation generation, so entries belonging
    to superseded states are unreachable the moment a write lands —
    invalidation is by construction, not by enumeration.
    """
    return ObjectLRUCache(capacity_bytes)


def record_cache(capacity_bytes: int) -> ObjectLRUCache:
    """The decoded-``TrajectoryRecord`` cache (skips ``decode_row``),
    keyed by ``(row key, generation)`` and cost-accounted in encoded
    row bytes."""
    return ObjectLRUCache(capacity_bytes)


class CachedKVTable:
    """A :class:`KVTable` front with an LRU over point reads.

    Scans bypass the cache (range reads would churn it, the same reason
    HBase marks scans non-caching by default).  Cached entries are
    keyed under the table's mutation ``generation``, so *any* write —
    through this wrapper or directly against the underlying table —
    makes every previously cached value unreachable; the wrapper can
    never serve a stale row.
    """

    def __init__(self, table: "KVTable", capacity_bytes: int = 16 * 1024 * 1024):
        self.table = table
        self.cache = LRUCache(capacity_bytes)

    def _cache_key(self, key: bytes) -> bytes:
        return b"%d\x00%s" % (self.table.generation, bytes(key))

    def get(self, key: bytes) -> Optional[bytes]:
        ck = self._cache_key(key)
        cached = self.cache.get(ck)
        if cached is not None:
            self.table.metrics.row_cache_hits += 1
            return cached
        self.table.metrics.row_cache_misses += 1
        value = self.table.get(key)
        if value is not None:
            self.cache.put(ck, value)
        return value

    def put(self, key: bytes, value: bytes) -> None:
        self.cache.invalidate(self._cache_key(key))
        self.table.put(key, value)

    def delete(self, key: bytes) -> None:
        self.cache.invalidate(self._cache_key(key))
        self.table.delete(key)

    def scan(self, *args, **kwargs) -> Iterator[Tuple[bytes, bytes]]:
        return self.table.scan(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.table, name)
