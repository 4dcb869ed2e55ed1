"""The storage read model: a walk over the live table (regions → LSM
stores → SSTables → WAL totals) plus the key-space heatmap, surfacing
flush/compaction bytes & durations, seek-depth distribution, bloom
false-positive rate, per-level run counts and read amplification under
stable ``trass.storage.*`` dotted names.

Scan traffic has one gated account, the table's
:class:`~repro.obs.heatmap.KeySpaceHeatmap`
(``TraSSConfig.storage_telemetry``); a per-region view of it maps the
fixed buckets onto the current regions at read time
(:meth:`~repro.obs.heatmap.KeySpaceHeatmap.region_sums`).  Totals and
read amplification come from ``IOMetrics``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.kvstore.metrics import DURATION_BUCKETS, SEEK_DEPTH_BUCKETS
from repro.obs.heatmap import _key_label, _stop_label
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


# ----------------------------------------------------------------------
# Read-model collection over the live table
# ----------------------------------------------------------------------
def collect_storage_stats(engine) -> Dict[str, Any]:
    """The ``storage`` section of ``repro stats --json``.

    A pure read: walks regions, their LSM stores and SSTables, the WAL
    process totals and the heatmap, and aggregates.
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
        "heatmap": (
            table.heatmap.to_json() if table.heatmap is not None else None
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

    region_hist = h(
        "trass.storage.region.rows_scanned",
        "per-region scanned-row distribution",
        REGION_ROWS_BUCKETS,
    )
    heat = engine.store.table.heatmap
    if heat is not None:
        for _, rows in heat.region_sums(engine.store.table, heat.rows):
            region_hist.observe(rows)
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
