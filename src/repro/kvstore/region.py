"""Regions: contiguous key-range partitions of a table.

Each region owns the half-open key range ``[start_key, end_key)`` and
an :class:`~repro.kvstore.lsm.LSMStore`.  When a region grows past its
size threshold it splits at its median key, exactly the automatic
partitioning the paper relies on ("most key-value stores have an
automatic partitioning strategy", Section IV-E).
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Tuple

from repro.exceptions import RegionError
from repro.kvstore.lsm import LSMStore

#: process-wide region identities; splits mint fresh ids, so a cache
#: entry keyed by region id can never alias a daughter region's data
_REGION_IDS = itertools.count()


class Region:
    """One key-range shard of a table."""

    def __init__(
        self,
        start_key: Optional[bytes],
        end_key: Optional[bytes],
        flush_threshold: int = 4 * 1024 * 1024,
    ):
        self.start_key = start_key
        self.end_key = end_key
        self.store = LSMStore(flush_threshold=flush_threshold)
        self.row_count = 0
        #: stable identity for cache keys (never reused, unlike ``id()``)
        self.region_id = next(_REGION_IDS)

    # ------------------------------------------------------------------
    def owns(self, key: bytes) -> bool:
        """True if ``key`` falls in this region's range."""
        if self.start_key is not None and key < self.start_key:
            return False
        if self.end_key is not None and key >= self.end_key:
            return False
        return True

    def put(self, key: bytes, value: bytes) -> None:
        if not self.owns(key):
            raise RegionError(
                f"key {key!r} routed to region [{self.start_key!r}, "
                f"{self.end_key!r})"
            )
        before = self.store.get(key)
        self.store.put(key, value)
        if before is None:
            self.row_count += 1

    def delete(self, key: bytes) -> None:
        if not self.owns(key):
            raise RegionError(
                f"key {key!r} routed to region [{self.start_key!r}, "
                f"{self.end_key!r})"
            )
        if self.store.get(key) is not None:
            self.row_count -= 1
        self.store.delete(key)

    def get(self, key: bytes) -> Optional[bytes]:
        return self.store.get(key)

    def _clip(
        self, start: Optional[bytes], stop: Optional[bytes]
    ) -> Tuple[Optional[bytes], Optional[bytes]]:
        """The intersection of ``[start, stop)`` and the region."""
        lo = self.start_key if start is None else (
            start if self.start_key is None else max(start, self.start_key)
        )
        hi = self.end_key if stop is None else (
            stop if self.end_key is None else min(stop, self.end_key)
        )
        return lo, hi

    def scan(
        self, start: Optional[bytes], stop: Optional[bytes]
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Entries in the intersection of the request and the region."""
        return self.store.scan(*self._clip(start, stop))

    def holds_any(self, start: Optional[bytes], stop: Optional[bytes]) -> bool:
        """Whether a key, live or tombstone, lies in the intersection of
        ``[start, stop)`` and the region."""
        return self.store.holds_any(*self._clip(start, stop))

    @property
    def approximate_size(self) -> int:
        return self.store.approximate_size

    # ------------------------------------------------------------------
    def split(self) -> Tuple["Region", "Region"]:
        """Split at the median visible key.

        Returns the two daughter regions; raises when the region has
        fewer than two rows (nothing to split around).
        """
        keys = [key for key, _ in self.store.scan()]
        if len(keys) < 2:
            raise RegionError("cannot split a region with fewer than 2 rows")
        pivot = keys[len(keys) // 2]
        left = Region(self.start_key, pivot, self.store.flush_threshold)
        right = Region(pivot, self.end_key, self.store.flush_threshold)
        for key, value in self.store.scan():
            (left if key < pivot else right).put(key, value)
        return left, right

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Region([{self.start_key!r}, {self.end_key!r}), "
            f"rows={self.row_count})"
        )
