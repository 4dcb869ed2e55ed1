"""The table facade: routing, auto-splitting, multi-range scans.

``KVTable`` is what the rest of the library talks to.  It mimics the
slice of the HBase surface TraSS uses: batched puts, point gets, and —
the centrepiece — multi-range scans with a server-side filter, where
every row touched inside the requested ranges is accounted as scan I/O
whether or not the filter lets it through.
"""

from __future__ import annotations

import bisect
import weakref
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import KVStoreError
from repro.kvstore.cache import ObjectLRUCache, scan_block_cache
from repro.kvstore.filters import RowFilter
from repro.kvstore.metrics import IOMetrics
from repro.kvstore.region import Region

#: the fewest rows a region may hold before it splits in two
MIN_REGION_ROWS = 2


@dataclass(frozen=True)
class ScanRange:
    """A half-open row-key range ``[start, stop)``; ``None`` = open end."""

    start: Optional[bytes] = None
    stop: Optional[bytes] = None

    def __post_init__(self) -> None:
        if (
            self.start is not None
            and self.stop is not None
            and self.start >= self.stop
        ):
            raise KVStoreError(
                f"empty scan range [{self.start!r}, {self.stop!r})"
            )


class KVTable:
    """A sorted key-value table split into auto-managed regions."""

    def __init__(
        self,
        name: str = "table",
        max_region_rows: int = 100_000,
        flush_threshold: int = 4 * 1024 * 1024,
        metrics: Optional[IOMetrics] = None,
    ):
        if max_region_rows < MIN_REGION_ROWS:
            raise KVStoreError(
                f"max_region_rows must be >= {MIN_REGION_ROWS}, "
                f"got {max_region_rows}"
            )
        self.name = name
        self.max_region_rows = max_region_rows
        self.flush_threshold = flush_threshold
        self.metrics = metrics if metrics is not None else IOMetrics()
        #: optional :class:`~repro.obs.heatmap.KeySpaceHeatmap` the
        #: scan and get paths feed; ``None`` keeps them free of
        #: telemetry work entirely
        self.heatmap = None
        #: regions ordered by start key; region 0 starts open
        self.regions: List[Region] = [Region(None, None, flush_threshold)]
        #: optional :class:`~repro.kvstore.faults.FaultInjector`; when
        #: set, scans pass through its hook points
        self.fault_injector = None
        #: mutation epoch: bumped by every put/delete/split/flush/
        #: compaction; cache keys embed it, so entries of superseded
        #: states are unreachable rather than merely invalidated
        self.generation = 0
        #: optional scan block cache (``enable_scan_cache``)
        self.scan_cache: Optional[ObjectLRUCache] = None
        # Cached (region_count, sorted non-root start keys) for bisect
        # routing; regions only change by growing, so the count is a
        # sufficient invalidation key.
        self._starts_cache: Tuple[int, List[bytes]] = (0, [])

    # ------------------------------------------------------------------
    # Caching
    # ------------------------------------------------------------------
    def enable_scan_cache(self, capacity_bytes: int) -> None:
        """Attach a scan block cache (``<= 0`` detaches).

        The cache sits *below* the I/O accounting: a cached scan still
        counts every row as scanned, so pruning and I/O-reduction
        numbers stay cache-agnostic — only wall time changes.
        """
        self.scan_cache = (
            scan_block_cache(capacity_bytes) if capacity_bytes > 0 else None
        )

    def _bump_generation(self) -> None:
        self.generation += 1

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _region_starts(self) -> List[bytes]:
        """Sorted start keys of regions 1..n-1 (region 0 starts open)."""
        count, starts = self._starts_cache
        if count != len(self.regions):
            starts = [r.start_key for r in self.regions[1:]]
            self._starts_cache = (len(self.regions), starts)
        return starts

    def _region_index_for(self, key: bytes) -> int:
        """Index of the region owning ``key``."""
        # Region 0 has start None (the minimum); bisect the rest.
        return bisect.bisect_right(self._region_starts(), key)

    def overlapping_region_span(
        self, start: Optional[bytes], stop: Optional[bytes]
    ) -> Tuple[int, int]:
        """``[lo, hi)`` region indices intersecting ``[start, stop)``.

        Regions tile the key space contiguously (splits preserve this),
        so two bisects over the sorted start keys replace the linear
        overlap test — the difference between O(log regions) and
        O(regions) per range in the Figure 19 shard sweep.
        """
        starts = self._region_starts()
        lo = 0 if start is None else bisect.bisect_right(starts, start)
        hi = (
            len(self.regions)
            if stop is None
            else bisect.bisect_left(starts, stop) + 1
        )
        return lo, max(lo, hi)

    def region_for(self, key: bytes) -> Region:
        return self.regions[self._region_index_for(bytes(key))]

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    @property
    def row_count(self) -> int:
        return sum(r.row_count for r in self.regions)

    @property
    def approximate_size(self) -> int:
        return sum(r.approximate_size for r in self.regions)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        key = bytes(key)
        idx = self._region_index_for(key)
        region = self.regions[idx]
        region.put(key, value)
        self._bump_generation()
        self.metrics.puts += 1
        if region.row_count > self.max_region_rows:
            self._split_region(idx)

    def delete(self, key: bytes) -> None:
        key = bytes(key)
        self.region_for(key).delete(key)
        self._bump_generation()

    def _split_region(self, idx: int) -> None:
        left, right = self.regions[idx].split()
        self.regions[idx : idx + 1] = [left, right]
        self._bump_generation()

    def flush_all(self) -> None:
        # Flush/compaction leave visible data intact, but they replace
        # the physical runs cached blocks were built from — invalidate
        # conservatively, exactly as HBase's BlockCache does.
        for region in self.regions:
            region.store.flush()
        self._bump_generation()

    def compact_all(self) -> None:
        for region in self.regions:
            region.store.compact()
        self._bump_generation()

    def adopt_segment(self, segment) -> None:
        """Point a segment's counters at this table's metrics sink
        (late-bound, so replacing ``table.metrics`` re-routes them).

        The provider holds the table weakly: the table owns the segment,
        so a strong reference back would make every loaded table a
        cycle that only the garbage collector frees, late.
        """
        owner = weakref.ref(self)
        segment.metrics_provider = lambda: getattr(owner(), "metrics", None)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[bytes]:
        key = bytes(key)
        self.metrics.gets += 1
        region = self.region_for(key)
        value = region.get(key)
        if value is not None:
            self.metrics.bytes_read += len(key) + len(value)
        if self.heatmap is not None:
            self.heatmap.record(key)
        return value

    def _regions_overlapping(
        self, start: Optional[bytes], stop: Optional[bytes]
    ) -> List[Region]:
        lo, hi = self.overlapping_region_span(start, stop)
        return self.regions[lo:hi]

    def holds_any(self, start: Optional[bytes], stop: Optional[bytes]) -> bool:
        """Whether any key, live or tombstone, lies in ``[start, stop)``.

        Exact on the absent side: False proves :meth:`scan` of the range
        yields no row, so the read path drops such a range before
        dispatch.  It reads run metadata only — no I/O accounting, no
        telemetry and no fault hook (outages are modelled where a scan
        starts).  A segment may decode the one block a scan of the
        range would decode first.
        """
        regions = self.regions
        if len(regions) == 1:
            # The one region spans the key space: nothing to clip.
            return regions[0].store.holds_any(start, stop)
        lo, hi = self.overlapping_region_span(start, stop)
        for i in range(lo, hi):
            if regions[i].holds_any(start, stop):
                return True
        return False

    def scan(
        self,
        start: Optional[bytes] = None,
        stop: Optional[bytes] = None,
        row_filter: Optional[RowFilter] = None,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Rows in ``[start, stop)`` surviving the server-side filter.

        Rows the filter rejects are still counted in ``rows_scanned``
        and ``bytes_read`` — they were real I/O on the server.

        With a fault injector installed the scan passes through its
        hook points: a region may raise
        :class:`~repro.exceptions.RegionUnavailableError` as its scan
        starts (nothing of that region was delivered yet, so a caller
        that retries the whole range sees every row at most once), and
        splits/compactions may be forced mid-scan — the region list and
        row iterators captured here keep reading the pre-mutation
        structures, so delivery stays exactly-once.
        """
        injector = self.fault_injector
        heatmap = self.heatmap
        metrics = self.metrics
        metrics.range_seeks += 1
        # Heat is paid per range, not per row: a range inside one bucket
        # adds each region's rows once when the region is left
        # (normally, by a fault or by an early close).  A range that
        # crosses a bucket boundary counts through a bucket cursor.
        bucket = None if heatmap is None else heatmap.range_bucket(start, stop)
        for region in self._regions_overlapping(start, stop):
            if injector is not None:
                injector.on_region_scan_start(self, region)
            metrics.regions_visited += 1
            rows = self._region_rows(region, start, stop)
            if heatmap is not None and bucket is None:
                rows = heatmap.count_rows(rows)
            scanned = 0
            try:
                for key, value in rows:
                    scanned += 1
                    metrics.rows_scanned += 1
                    metrics.bytes_read += len(key) + len(value)
                    if injector is not None:
                        injector.on_row_scanned(self, region)
                    if row_filter is not None:
                        metrics.filter_evaluations += 1
                        if not row_filter.accept(key, value):
                            metrics.filter_rejections += 1
                            continue
                    metrics.rows_returned += 1
                    yield key, value
            finally:
                if bucket is not None:
                    if scanned:
                        heatmap.add(bucket, scanned)
                elif heatmap is not None:
                    rows.close()

    def _region_rows(
        self, region: Region, start: Optional[bytes], stop: Optional[bytes]
    ):
        """One region's merged run for ``[start, stop)``, block-cached.

        Keys embed ``(region id, range, generation)``, so any write
        since the entry was built makes it unreachable — a hit is
        always current.  With a fault injector installed the cache is
        bypassed entirely: injected mid-scan disruptions must race the
        *live* LSM iterators, exactly as on the seed read path.
        """
        cache = self.scan_cache
        if cache is None or self.fault_injector is not None:
            return region.scan(start, stop)
        key = (region.region_id, start, stop, self.generation)
        rows = cache.get(key)
        if rows is not None:
            self.metrics.block_cache_hits += 1
            return rows
        self.metrics.block_cache_misses += 1
        rows = list(region.scan(start, stop))
        cost = sum(len(k) + len(v) for k, v in rows) + 64
        cache.put(key, rows, cost)
        return rows

    def scan_ranges(
        self,
        ranges: Sequence[ScanRange],
        row_filter: Optional[RowFilter] = None,
    ) -> List[Tuple[bytes, bytes]]:
        """Execute every range scan and concatenate the results.

        Ranges are executed in the given order; overlapping ranges will
        return duplicate rows (the planner is expected to merge first).
        """
        out: List[Tuple[bytes, bytes]] = []
        for scan_range in ranges:
            out.extend(self.scan(scan_range.start, scan_range.stop, row_filter))
        return out

    def full_scan(self) -> Iterator[Tuple[bytes, bytes]]:
        """Every row in the table (baseline work / verification)."""
        return self.scan(None, None, None)
