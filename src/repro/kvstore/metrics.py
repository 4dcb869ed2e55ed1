"""I/O accounting for the key-value store.

The paper's evaluation reports *retrieved trajectories*, *candidates
after pruning* and I/O reduction percentages; these counters are where
those numbers come from in this reproduction.  ``rows_scanned`` counts
every row the store had to look at inside scan ranges, whether or not a
server-side filter later dropped it; ``rows_returned`` counts rows that
survived filtering and crossed the (simulated) client boundary.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from typing import Dict, Tuple

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
    #: decoded-``TrajectoryRecord`` cache (skips ``TrajectoryRecord.from_row``)
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
    # Compact mmap segments (the on-disk run format).  The
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
        """A plain-dict copy of the current counters, in field order."""
        return dict(zip(FIELD_NAMES, _field_values(self)))

    def reset(self) -> None:
        """Zero every counter (between benchmark phases)."""
        for name in FIELD_NAMES:
            setattr(self, name, 0)

    def diff(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter deltas since a :meth:`snapshot`."""
        get = before.get
        return {
            name: now - get(name, 0)
            for name, now in zip(FIELD_NAMES, _field_values(self))
        }

    def counters(self) -> Tuple[int, ...]:
        """The raw counter values in field order: the per-query
        snapshot, one tuple and no dict."""
        return _field_values(self)

    def since(self, before: Tuple[int, ...]) -> Tuple[int, ...]:
        """Counter deltas since :meth:`counters`, in field order."""
        return tuple(map(operator.sub, _field_values(self), before))


#: the counters' names in field order, computed once: every shard
#: worker snapshots and diffs them per query
FIELD_NAMES: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(IOMetrics)
)
_field_values = operator.attrgetter(*FIELD_NAMES)


def named_counters(values: Tuple[int, ...]) -> Dict[str, int]:
    """A :meth:`IOMetrics.counters` / :meth:`IOMetrics.since` tuple as
    the ``{field: value}`` dict :meth:`IOMetrics.snapshot` returns."""
    return dict(zip(FIELD_NAMES, values))
