"""Log-structured merge store: one memtable over a stack of SSTables.

Writes land in the memtable; when it exceeds ``flush_threshold`` bytes
it is frozen into an SSTable.  Reads merge the memtable and all tables
newest-first so fresher versions (and tombstones) shadow older ones.
When the table count passes ``compaction_trigger`` every run is merged
into one, dropping shadowed versions and tombstones — size-tiered
compaction in its simplest honest form.
"""

from __future__ import annotations

import heapq
import time
from typing import Iterator, List, Optional, Tuple

from repro.kvstore.memtable import TOMBSTONE, Entry, MemTable
from repro.kvstore.metrics import DURATION_BUCKETS, SEEK_DEPTH_BUCKETS
from repro.kvstore.sstable import SSTable
from repro.obs.registry import Histogram


class LSMStore:
    """An embedded LSM tree over byte keys and byte values."""

    def __init__(
        self,
        flush_threshold: int = 4 * 1024 * 1024,
        compaction_trigger: int = 8,
    ):
        self.flush_threshold = flush_threshold
        self.compaction_trigger = compaction_trigger
        self.memtable = MemTable()
        #: newest first
        self.sstables: List[SSTable] = []
        self.flush_count = 0
        self.compaction_count = 0
        #: optional FaultInjector consulted at the flush crash points
        self.fault_injector = None
        # ------------------------------------------------------------------
        # Storage-engine telemetry.  Always-on local counters, like
        # ``flush_count`` above: they never touch ``IOMetrics`` and cost
        # a handful of integer adds, so query answers and I/O accounting
        # are byte-identical whether or not anyone reads them.
        # ------------------------------------------------------------------
        #: point reads served by this store
        self.gets = 0
        #: total structures consulted across all point reads
        self.seek_depth_total = 0
        #: seek-depth distribution (1 = memtable hit)
        self.seek_depth_hist = Histogram(
            "trass.storage.seek_depth", buckets=SEEK_DEPTH_BUCKETS
        )
        #: payload bytes frozen into SSTables by flushes
        self.flush_bytes = 0
        #: wall seconds spent in flushes
        self.flush_seconds = 0.0
        self.flush_duration_hist = Histogram(
            "trass.storage.flush.duration_seconds", buckets=DURATION_BUCKETS
        )
        #: payload bytes rewritten by compactions
        self.compaction_bytes = 0
        #: wall seconds spent in compactions
        self.compaction_seconds = 0.0
        self.compaction_duration_hist = Histogram(
            "trass.storage.compaction.duration_seconds",
            buckets=DURATION_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        self.memtable.put(key, value)
        self._maybe_flush()

    def delete(self, key: bytes) -> None:
        self.memtable.delete(key)
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if self.memtable.approximate_size >= self.flush_threshold:
            self.flush()

    def flush(self) -> None:
        """Freeze the memtable into a new SSTable (no-op when empty).

        A crash between the two ``memtable.flush`` crash points loses
        only in-memory state — durability always comes from the WAL +
        checkpoint pair, which is exactly what the crash-recovery suite
        demonstrates by killing the process here.
        """
        if len(self.memtable) == 0:
            return
        if self.fault_injector is not None:
            from repro.kvstore.faults import CRASH_MEMTABLE_FLUSH_PRE

            self.fault_injector.crash_point(CRASH_MEMTABLE_FLUSH_PRE)
        started = time.perf_counter()
        run = SSTable.from_entries(self.memtable.items())
        self.sstables.insert(0, run)
        self.memtable = MemTable()
        self.flush_count += 1
        seconds = time.perf_counter() - started
        self.flush_bytes += run.size_bytes
        self.flush_seconds += seconds
        self.flush_duration_hist.observe(seconds)
        if self.fault_injector is not None:
            from repro.kvstore.faults import CRASH_MEMTABLE_FLUSH_POST

            self.fault_injector.crash_point(CRASH_MEMTABLE_FLUSH_POST)
        if len(self.sstables) >= self.compaction_trigger:
            self.compact()

    def compact(self) -> None:
        """Merge every run into one, dropping shadowed versions and
        tombstones (a full compaction may drop tombstones safely)."""
        if len(self.sstables) <= 1 and len(self.memtable) == 0:
            return
        started = time.perf_counter()
        merged = [
            (key, value)
            for key, value in self._merged_entries(None, None)
            if value is not TOMBSTONE
        ]
        self.memtable = MemTable()
        self.sstables = [SSTable.from_entries(merged)] if merged else []
        self.compaction_count += 1
        seconds = time.perf_counter() - started
        if self.sstables:
            self.compaction_bytes += self.sstables[0].size_bytes
        self.compaction_seconds += seconds
        self.compaction_duration_hist.observe(seconds)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[bytes]:
        """Newest visible value for ``key`` or ``None``.

        Seek depth — how many structures the read consulted before
        resolving (memtable counts as one, each SSTable one more) — is
        the per-read face of read amplification and feeds the
        ``trass.storage.seek_depth`` histogram.
        """
        self.gets += 1
        depth = 1
        found = self.memtable.get(key)
        if found is not None:
            self._record_seek(depth)
            return None if found is TOMBSTONE else found  # type: ignore[return-value]
        for table in self.sstables:
            depth += 1
            found = table.get(key)
            if found is not None:
                self._record_seek(depth)
                return None if found is TOMBSTONE else found  # type: ignore[return-value]
        self._record_seek(depth)
        return None

    def _record_seek(self, depth: int) -> None:
        self.seek_depth_total += depth
        self.seek_depth_hist.observe(depth)

    def _merged_entries(
        self, start: Optional[bytes], stop: Optional[bytes]
    ) -> Iterator[Entry]:
        """K-way merge of all runs, newest version per key, tombstones
        still present (dropped by :meth:`scan`)."""
        sources: List[Iterator[Entry]] = [self.memtable.scan(start, stop)]
        sources.extend(t.scan(start, stop) for t in self.sstables)
        # Heap items: (key, source priority, tiebreak, value, source iter).
        # Lower priority = newer source, so the first item popped for a
        # key is the authoritative version.
        heap: List[Tuple[bytes, int, object, Iterator[Entry]]] = []
        for priority, source in enumerate(sources):
            for key, value in source:
                heap.append((key, priority, value, source))
                break
        heapq.heapify(heap)
        last_key: Optional[bytes] = None
        while heap:
            key, priority, value, source = heapq.heappop(heap)
            for next_key, next_value in source:
                heapq.heappush(heap, (next_key, priority, next_value, source))
                break
            if key == last_key:
                continue  # older version shadowed
            last_key = key
            yield key, value

    def scan(
        self, start: Optional[bytes] = None, stop: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Visible entries with ``start <= key < stop``, key order."""
        for key, value in self._merged_entries(start, stop):
            if value is not TOMBSTONE:
                yield key, value  # type: ignore[misc]

    def holds_any(self, start: Optional[bytes], stop: Optional[bytes]) -> bool:
        """Whether any run holds a key, live or tombstone, in
        ``[start, stop)``.  False proves :meth:`scan` yields nothing."""
        if self.memtable.holds_any(start, stop):
            return True
        for run in self.sstables:
            if run.holds_any(start, stop):
                return True
        return False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of visible entries (requires a scan; diagnostic)."""
        return sum(1 for _ in self.scan())

    @property
    def approximate_size(self) -> int:
        """Payload bytes across the memtable and every run."""
        return self.memtable.approximate_size + sum(
            t.size_bytes for t in self.sstables
        )

    def entries(self) -> Iterator[Tuple[bytes, bytes]]:
        """Alias of a full :meth:`scan` (used by region splits)."""
        return self.scan()
