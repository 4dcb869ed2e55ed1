"""Read caching for the key-value store (the multi-tier cache layer).

HBase fronts its store files with a BlockCache; the embedded
equivalent here is :class:`ObjectLRUCache` — a least-recently-used map
over arbitrary hashable keys and Python values with an explicit
per-entry cost, behind a lock.  The scan block cache, the
decoded-record cache and the pruning-plan cache are all instances of
it.

Every cache exposes the same accounting surface: ``hits`` / ``misses``
/ ``evictions`` / ``invalidations``, a ``hit_rate``, and
``reset_stats()``.  ``clear()`` drops every entry *and* resets the
stats — a cleared cache starts a fresh accounting epoch, so hit rates
never mix measurements across an invalidation boundary.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

from repro.exceptions import KVStoreError


class ObjectLRUCache:
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
        self.capacity = capacity
        self.current_cost = 0
        self._data: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self.reset_stats()

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
