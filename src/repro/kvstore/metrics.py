"""I/O accounting for the key-value store.

The paper's evaluation reports *retrieved trajectories*, *candidates
after pruning* and I/O reduction percentages; these counters are where
those numbers come from in this reproduction.  ``rows_scanned`` counts
every row the store had to look at inside scan ranges, whether or not a
server-side filter later dropped it; ``rows_returned`` counts rows that
survived filtering and crossed the (simulated) client boundary.
"""

from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: seek-depth buckets: structures consulted by one LSM point read
#: (1 = memtable hit, each SSTable adds one)
SEEK_DEPTH_BUCKETS: Tuple[float, ...] = (1, 2, 3, 4, 6, 8, 12, 16)

#: flush / compaction duration buckets in seconds
DURATION_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)


class FixedBucketCounts:
    """A mergeable fixed-bucket histogram (Prometheus ``le`` semantics).

    The storage-engine telemetry keeps distributions (seek depth, flush
    and compaction durations) as raw per-bucket counts down here in the
    kvstore layer; the observability registry copies the state out at
    refresh time, so exporting can never perturb the accounting.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]):
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        #: one slot per finite bucket plus the +Inf overflow slot
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def merge_from(self, other: "FixedBucketCounts") -> None:
        if other.buckets != self.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def state(self) -> Tuple[List[int], float, int]:
        """``(counts, sum, count)`` for registry absorption."""
        return list(self.counts), self.sum, self.count


@dataclass
class IOMetrics:
    """Mutable counter bundle; one per table, shareable by scanners."""

    rows_scanned: int = 0
    rows_returned: int = 0
    bytes_read: int = 0
    range_seeks: int = 0
    gets: int = 0
    puts: int = 0
    bloom_negatives: int = 0
    sstables_opened: int = 0
    regions_visited: int = 0
    filter_evaluations: int = 0
    filter_rejections: int = 0
    #: transient faults the injector raised against this table
    faults_injected: int = 0
    #: range-scan attempts repeated after a transient failure
    retries: int = 0
    #: ranges abandoned in degraded mode (retry budget / breaker / deadline)
    ranges_skipped: int = 0
    #: circuit-breaker open transitions
    breaker_trips: int = 0
    # ------------------------------------------------------------------
    # Cache tiers (the execution performance layer).  Hits/misses are
    # *additional* accounting: a block-cache hit still counts its rows
    # as ``rows_scanned`` (the rows were logically scanned, just served
    # from memory), so pruning/I-O comparisons stay cache-agnostic.
    # ------------------------------------------------------------------
    #: LSM scan block cache (materialised merged runs per key range)
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    #: decoded-``TrajectoryRecord`` cache (skips ``decode_row``)
    record_cache_hits: int = 0
    record_cache_misses: int = 0
    #: global-pruning plan cache (skips Algorithm 1 re-planning)
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    # ------------------------------------------------------------------
    # Scan-plan coalescing (gap merging and multi-query batches).
    # ------------------------------------------------------------------
    #: single-query scan ranges eliminated by gap coalescing in the
    #: planner (``range_merge_gap`` > 0)
    ranges_merged: int = 0
    #: per-query key ranges folded into the shared plan of a multi-query
    #: batch (planned ranges minus ranges actually scanned)
    batch_ranges_merged: int = 0
    #: row deliveries served from a shared batch scan beyond the first
    #: (each counts a row some query did *not* have to re-scan)
    batch_rows_shared: int = 0
    # ------------------------------------------------------------------
    # Compact mmap segments (the frozen read-optimized format).  The
    # compressed/logical pair is what the advisor divides to report the
    # live compression ratio of the bytes actually touched.
    # ------------------------------------------------------------------
    #: segment blocks decoded (lazy materialisation, counted once each)
    segment_blocks_materialized: int = 0
    #: on-disk (compressed) bytes of the blocks materialised
    segment_bytes_compressed: int = 0
    #: logical (uncompressed entry payload) bytes those blocks carry
    segment_bytes_logical: int = 0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of the current counters."""
        return {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }

    def reset(self) -> None:
        """Zero every counter (between benchmark phases)."""
        for name in self.snapshot():
            setattr(self, name, 0)

    def diff(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter deltas since a :meth:`snapshot`."""
        now = self.snapshot()
        return {name: now[name] - before.get(name, 0) for name in now}
