"""Deep storage-engine telemetry (the layer beneath PR-3's tracing).

Two complementary halves:

* :class:`StorageTelemetry` — the **write side**: a per-table sink the
  scan and get paths feed (per-region rows scanned / returned / bytes,
  read amplification, key-space heat).  Gated by
  ``TraSSConfig.storage_telemetry``.  A scan counts its rows in local
  integers and adds them to the region's :class:`RegionScanStats` once
  per region, and heat once per range (a range that crosses a heat
  bucket boundary pays one key comparison per row instead).  Query
  answers and ``IOMetrics`` totals are byte-identical either way
  (telemetry never writes to ``IOMetrics`` at all).

* :func:`collect_storage_stats` / :func:`update_storage_registry` — the
  **read side**: a read-model walk over the live table (regions → LSM
  stores → SSTables → WAL totals) plus the telemetry sink, surfacing
  flush/compaction bytes & durations, seek-depth distribution, bloom
  false-positive rate, per-level run counts and read amplification
  under stable ``trass.storage.*`` dotted names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.kvstore.metrics import DURATION_BUCKETS, SEEK_DEPTH_BUCKETS
from repro.obs.heatmap import KeySpaceHeatmap, _key_label, _stop_label
from repro.obs.registry import Histogram

#: per-region rows_scanned distribution buckets (registry histogram)
REGION_ROWS_BUCKETS: Tuple[float, ...] = (
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
)


@dataclass
class RegionScanStats:
    """Scan-side counters for one region (keyed by its stable id)."""

    #: printable key-range label captured when first seen
    start_label: str = "-inf"
    stop_label: str = "+inf"
    scans: int = 0
    rows_scanned: int = 0
    rows_returned: int = 0
    bytes_read: int = 0
    gets: int = 0

    @property
    def read_amplification(self) -> float:
        """Rows the store touched per row that survived filtering."""
        if self.rows_returned == 0:
            return float(self.rows_scanned) if self.rows_scanned else 0.0
        return self.rows_scanned / self.rows_returned

    def to_json(self) -> Dict[str, Any]:
        return {
            "start": self.start_label,
            "stop": self.stop_label,
            "scans": self.scans,
            "rows_scanned": self.rows_scanned,
            "rows_returned": self.rows_returned,
            "bytes_read": self.bytes_read,
            "gets": self.gets,
            "read_amplification": self.read_amplification,
        }


class StorageTelemetry:
    """The per-table storage telemetry sink.

    One instance hangs off the table (``table.storage_telemetry``).
    """

    def __init__(self, heatmap: Optional[KeySpaceHeatmap] = None):
        self.heatmap = heatmap
        #: region id -> scan stats; ids are never reused, so a split
        #: retires the parent's entry rather than aliasing a daughter
        self.regions: Dict[int, RegionScanStats] = {}
        #: the stats handed out last: a scan fetches a region's stats as
        #: it enters the region, so while a row filter runs these are the
        #: stats its row is counted in
        self.reading: Optional[RegionScanStats] = None

    # ------------------------------------------------------------------
    # Write side (called from the table's scan/get hot paths)
    # ------------------------------------------------------------------
    def region_stats(self, region) -> RegionScanStats:
        stats = self.regions.get(region.region_id)
        if stats is None:
            stats = RegionScanStats(
                start_label=_key_label(region.start_key),
                stop_label=_stop_label(region.end_key),
            )
            self.regions[region.region_id] = stats
        self.reading = stats
        return stats

    def advance_tick(self) -> None:
        """One recorded query has completed; age the heat."""
        if self.heatmap is not None:
            self.heatmap.advance_tick()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, int]:
        scanned = sum(s.rows_scanned for s in self.regions.values())
        returned = sum(s.rows_returned for s in self.regions.values())
        return {
            "rows_scanned": scanned,
            "rows_returned": returned,
            "bytes_read": sum(s.bytes_read for s in self.regions.values()),
            "scans": sum(s.scans for s in self.regions.values()),
            "gets": sum(s.gets for s in self.regions.values()),
        }

    def region_snapshot(self) -> Dict[int, Dict[str, Any]]:
        """A plain-dict copy (for before/after diffs in EXPLAIN
        ANALYZE)."""
        return {
            region_id: stats.to_json()
            for region_id, stats in self.regions.items()
        }

    def to_json(self) -> Dict[str, Any]:
        return {
            "regions": self.region_snapshot(),
            "totals": self.totals(),
            "heatmap": (
                self.heatmap.to_json() if self.heatmap is not None else None
            ),
        }


# ----------------------------------------------------------------------
# Read-model collection over the live table
# ----------------------------------------------------------------------
def collect_storage_stats(engine) -> Dict[str, Any]:
    """The ``storage`` section of ``repro stats --json``.

    A pure read: walks regions, their LSM stores and SSTables, the WAL
    process totals and the telemetry sink, and aggregates.
    """
    table = engine.store.table
    from repro.kvstore.wal import WriteAheadLog

    runs_per_region: List[int] = []
    region_rows: List[Dict[str, Any]] = []
    gets = seek_total = 0
    flush_count = flush_bytes = 0
    compaction_count = compaction_bytes = 0
    flush_seconds = compaction_seconds = 0.0
    bloom_reads = bloom_negatives = bloom_false_positives = 0
    segment_count = segment_file_bytes = segment_logical_bytes = 0
    segment_blocks = segment_blocks_materialized = 0
    seek_hist = Histogram(
        "trass.storage.seek_depth", buckets=SEEK_DEPTH_BUCKETS
    )
    for region in table.regions:
        store = region.store
        runs_per_region.append(len(store.sstables))
        region_rows.append(
            {
                "start": _key_label(region.start_key),
                "stop": _stop_label(region.end_key),
                "rows": region.row_count,
                "runs": len(store.sstables),
                "memtable_bytes": store.memtable.approximate_size,
            }
        )
        gets += store.gets
        seek_total += store.seek_depth_total
        seek_hist.merge_from(store.seek_depth_hist)
        flush_count += store.flush_count
        flush_bytes += store.flush_bytes
        flush_seconds += store.flush_seconds
        compaction_count += store.compaction_count
        compaction_bytes += store.compaction_bytes
        compaction_seconds += store.compaction_seconds
        for run in store.sstables:
            bloom_reads += run.reads
            bloom_negatives += run.bloom_negatives
            bloom_false_positives += run.bloom_false_positives
            # Compact mmap segments (duck-detected: only they carry a
            # logical-vs-physical byte split).
            if hasattr(run, "logical_bytes"):
                segment_count += 1
                segment_file_bytes += run.size_bytes
                segment_logical_bytes += run.logical_bytes
                segment_blocks += run.num_blocks
                segment_blocks_materialized += run.blocks_materialized

    bloom_passes = bloom_reads - bloom_negatives
    io = engine.metrics.snapshot()
    returned = io["rows_returned"]
    telemetry = getattr(table, "storage_telemetry", None)
    return {
        "regions": {
            "count": table.num_regions,
            "rows": table.row_count,
            "boundaries": region_rows,
        },
        "sstables": {
            "runs_total": sum(runs_per_region),
            "runs_per_region": runs_per_region,
            "max_runs": max(runs_per_region) if runs_per_region else 0,
        },
        "segments": {
            "count": segment_count,
            "file_bytes": segment_file_bytes,
            "logical_bytes": segment_logical_bytes,
            "compression_ratio": (
                segment_logical_bytes / segment_file_bytes
                if segment_file_bytes
                else 0.0
            ),
            "blocks": segment_blocks,
            "blocks_materialized": segment_blocks_materialized,
        },
        "bloom": {
            "reads": bloom_reads,
            "negatives": bloom_negatives,
            "false_positives": bloom_false_positives,
            "false_positive_rate": (
                bloom_false_positives / bloom_passes if bloom_passes else 0.0
            ),
        },
        "seek_depth": {
            "gets": gets,
            "total": seek_total,
            "mean": (seek_total / gets) if gets else 0.0,
            "buckets": list(seek_hist.buckets),
            "counts": list(seek_hist.counts),
        },
        "flush": {
            "count": flush_count,
            "bytes": flush_bytes,
            "seconds": flush_seconds,
        },
        "compaction": {
            "count": compaction_count,
            "bytes": compaction_bytes,
            "seconds": compaction_seconds,
        },
        "wal": dict(WriteAheadLog.totals),
        "read_amplification": (
            io["rows_scanned"] / returned if returned else 0.0
        ),
        "telemetry": (
            telemetry.to_json() if telemetry is not None else None
        ),
    }


def update_storage_registry(registry, engine) -> None:
    """Refresh the ``trass.storage.*`` names from current engine state.

    Called from :func:`repro.obs.registry.update_registry_from_engine`;
    read-only, idempotent (counters are overwritten with the live
    running totals, histograms have their state replaced wholesale).
    """
    stats = collect_storage_stats(engine)

    def c(name: str, help_: str, value) -> None:
        registry.counter(name, help_).set_to(value)

    def g(name: str, help_: str, value) -> None:
        registry.gauge(name, help_).set(value)

    flush = stats["flush"]
    c("trass.storage.flush.count", "memtable flushes", flush["count"])
    c("trass.storage.flush.bytes", "bytes frozen by flushes", flush["bytes"])
    c(
        "trass.storage.flush.seconds_total",
        "seconds spent flushing",
        flush["seconds"],
    )
    compaction = stats["compaction"]
    c("trass.storage.compaction.count", "compactions run", compaction["count"])
    c(
        "trass.storage.compaction.bytes",
        "bytes rewritten by compactions",
        compaction["bytes"],
    )
    c(
        "trass.storage.compaction.seconds_total",
        "seconds spent compacting",
        compaction["seconds"],
    )
    bloom = stats["bloom"]
    c("trass.storage.bloom.reads", "SSTable point reads", bloom["reads"])
    c(
        "trass.storage.bloom.negatives",
        "reads the bloom filter short-circuited",
        bloom["negatives"],
    )
    c(
        "trass.storage.bloom.false_positives",
        "bloom passes that then missed",
        bloom["false_positives"],
    )
    g(
        "trass.storage.bloom.false_positive_rate",
        "bloom false positives over passes",
        bloom["false_positive_rate"],
    )
    wal = stats["wal"]
    c("trass.storage.wal.appends", "WAL records appended", wal["appends"])
    c("trass.storage.wal.fsyncs", "WAL fsync calls", wal["fsyncs"])
    c(
        "trass.storage.wal.bytes_appended",
        "WAL bytes appended",
        wal["bytes_appended"],
    )
    g(
        "trass.storage.runs.total",
        "SSTable runs across all regions",
        stats["sstables"]["runs_total"],
    )
    g(
        "trass.storage.runs.max_per_region",
        "deepest per-region run stack",
        stats["sstables"]["max_runs"],
    )
    g(
        "trass.storage.read_amplification",
        "rows scanned per row returned",
        stats["read_amplification"],
    )
    segments = stats["segments"]
    g(
        "trass.storage.segment.count",
        "compact mmap segments across all regions",
        segments["count"],
    )
    g(
        "trass.storage.segment.file_bytes",
        "on-disk bytes held in compact segments",
        segments["file_bytes"],
    )
    g(
        "trass.storage.segment.logical_bytes",
        "uncompressed entry bytes those segments represent",
        segments["logical_bytes"],
    )
    g(
        "trass.storage.segment.compression_ratio",
        "logical bytes per on-disk byte across segments",
        segments["compression_ratio"],
    )
    g(
        "trass.storage.segment.blocks",
        "total blocks across compact segments",
        segments["blocks"],
    )
    g(
        "trass.storage.segment.blocks_resident",
        "segment blocks currently materialised",
        segments["blocks_materialized"],
    )

    # Histograms: rebuilt from empty on every refresh, so repeated
    # refreshes cannot double-count.
    def h(name: str, help_: str, buckets) -> Histogram:
        hist = registry.histogram(name, help_, buckets=buckets)
        hist.reset()
        return hist

    seek_hist = h(
        "trass.storage.seek_depth",
        "structures consulted per LSM point read",
        SEEK_DEPTH_BUCKETS,
    )
    flush_hist = h(
        "trass.storage.flush.duration_seconds",
        "memtable flush durations",
        DURATION_BUCKETS,
    )
    compaction_hist = h(
        "trass.storage.compaction.duration_seconds",
        "compaction durations",
        DURATION_BUCKETS,
    )
    for region in engine.store.table.regions:
        seek_hist.merge_from(region.store.seek_depth_hist)
        flush_hist.merge_from(region.store.flush_duration_hist)
        compaction_hist.merge_from(region.store.compaction_duration_hist)

    telemetry = getattr(engine.store.table, "storage_telemetry", None)
    region_hist = h(
        "trass.storage.region.rows_scanned",
        "per-region scanned-row distribution",
        REGION_ROWS_BUCKETS,
    )
    if telemetry is not None:
        for stats_ in telemetry.regions.values():
            region_hist.observe(stats_.rows_scanned)
        if telemetry.heatmap is not None:
            heat = telemetry.heatmap
            g(
                "trass.storage.heat.total",
                "decayed scan heat across the key space",
                heat.total_heat,
            )
            g(
                "trass.storage.heat.ticks",
                "queries recorded into the heatmap",
                heat.tick,
            )
            shard_heat = heat.shard_heat()
            if shard_heat:
                values = list(shard_heat.values())
                mean = sum(values) / len(values)
                g(
                    "trass.storage.heat.shard_skew",
                    "hottest shard heat over mean shard heat",
                    (max(values) / mean) if mean > 0 else 0.0,
                )
