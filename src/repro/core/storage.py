"""Trajectory storage (Section IV-E, Table I).

``TrajectoryStore`` owns the key-value table and the write path:
index with XZ*, extract DP features once at ingest ("we can calculate
the DP features of a trajectory before storing, so we do not need to
calculate DP features of extracted trajectories again", Section V-D),
salt the row key, and put.  It also turns index-value ranges into
per-shard row-key scan ranges for the read path.

``key_encoding`` selects between the paper's integer encoding and the
TraSS-S string encoding (the Figure 13(c) comparison); both are fully
functional engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.codec import decode_row, encode_row
from repro.core.config import TraSSConfig
from repro.core.executor import ResilientExecutor
from repro.exceptions import KVStoreError, QueryError
from repro.features.dp_features import DPFeatures, extract_dp_features
from repro.geometry.trajectory import Trajectory
from repro.index.ranges import IndexRange
from repro.index.xzstar import XZStarIndex
from repro.kvstore.metrics import IOMetrics
from repro.kvstore.rowkey import (
    encode_rowkey,
    encode_string_rowkey,
    rowkey_range,
    shard_of,
)
from repro.kvstore.table import KVTable, ScanRange

INTEGER_KEYS = "integer"
STRING_KEYS = "string"


@dataclass(frozen=True)
class TrajectoryRecord:
    """A decoded stored row."""

    tid: str
    points: Tuple[Tuple[float, float], ...]
    features: DPFeatures
    index_value: int

    def as_trajectory(self) -> Trajectory:
        return Trajectory(self.tid, self.points)


class TrajectoryStore:
    """The trajectory table plus its XZ* placement logic."""

    def __init__(
        self,
        config: Optional[TraSSConfig] = None,
        key_encoding: str = INTEGER_KEYS,
    ):
        if key_encoding not in (INTEGER_KEYS, STRING_KEYS):
            raise QueryError(
                f"key_encoding must be {INTEGER_KEYS!r} or {STRING_KEYS!r}, "
                f"got {key_encoding!r}"
            )
        self.config = config if config is not None else TraSSConfig()
        self.key_encoding = key_encoding
        self.index = XZStarIndex(self.config.max_resolution, self.config.bounds)
        self.table = KVTable(
            name="trajectory",
            max_region_rows=self.config.max_region_rows,
        )
        #: every query-path range scan goes through this executor
        #: (retry / backoff / circuit breaker / degraded mode)
        self.executor = ResilientExecutor.from_config(self.table, self.config)
        self.trajectory_count = 0
        #: index value -> number of stored trajectories (distribution stats)
        self.value_histogram: Dict[int, int] = {}
        #: decoded-record cache; ``None`` when ``config.cache_mb == 0``
        self.record_cache = None
        self._wire_caches()
        self._wire_telemetry()

    def _wire_caches(self) -> None:
        """Attach the cache tiers ``config.cache_mb`` pays for.

        Half the budget fronts the LSM scans (block cache), half holds
        decoded candidates as :class:`TrajectoryRecord`\\ s.  Called
        again after :meth:`load` replaces the table.
        """
        from repro.kvstore.cache import record_cache

        budget = int(self.config.cache_mb * 1024 * 1024)
        self.table.enable_scan_cache(budget // 2)
        self.record_cache = record_cache(budget - budget // 2) if budget else None

    def _wire_telemetry(self) -> None:
        """Attach the storage telemetry sink when configured.

        Builds the fixed key-space heatmap grid from the store's shape
        and hangs a :class:`~repro.obs.storage_stats.StorageTelemetry`
        off the table.  With ``config.storage_telemetry`` off the table
        attribute stays ``None`` and the scan path does no telemetry
        work at all.  Called again after :meth:`load` replaces the
        table (the grid depends only on config, so persisted heat can
        be restored on top).
        """
        if not self.config.storage_telemetry:
            self.table.storage_telemetry = None
            return
        from repro.obs.heatmap import KeySpaceHeatmap, key_space_boundaries
        from repro.obs.storage_stats import StorageTelemetry

        heatmap = KeySpaceHeatmap(
            key_space_boundaries(self, self.config.heatmap_buckets_per_shard),
            half_life=self.config.heat_decay_queries,
        )
        self.table.storage_telemetry = StorageTelemetry(heatmap)

    def boundary_key(self, shard: int, value: int) -> bytes:
        """The smallest row key of ``(shard, value)`` under the active
        key encoding — the heatmap's bucket-boundary generator."""
        if self.key_encoding == INTEGER_KEYS:
            return encode_rowkey(shard, value, "")
        return self._string_prefix(shard, value)

    def configure_execution(
        self,
        cache_mb: Optional[float] = None,
        plan_cache_size: Optional[int] = None,
    ) -> None:
        """Re-tune the cache tiers in place.

        ``None`` keeps a knob as configured.  Changes are validated
        through :class:`TraSSConfig` and rebuild the cache tiers; the
        index, table and stored rows are untouched.
        """
        import dataclasses

        changes = {}
        if cache_mb is not None:
            changes["cache_mb"] = cache_mb
        if plan_cache_size is not None:
            changes["plan_cache_size"] = plan_cache_size
        if not changes:
            return
        self.config = dataclasses.replace(self.config, **changes)
        self._wire_caches()

    @property
    def metrics(self) -> IOMetrics:
        return self.table.metrics

    def install_fault_injector(self, injector) -> None:
        """Attach (or with ``None`` detach) a
        :class:`~repro.kvstore.faults.FaultInjector` to the table.

        Either direction starts a fresh fault epoch: circuits opened
        under the previous schedule (and accumulated virtual backoff)
        are reset so they cannot short-circuit the next run's scans."""
        self.table.fault_injector = injector
        self.executor.reset()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _rowkey(self, shard: int, value: int, tid: str) -> bytes:
        if self.key_encoding == INTEGER_KEYS:
            return encode_rowkey(shard, value, tid)
        element, code = self.index.decode(value)
        return encode_string_rowkey(shard, element.sequence_str, code, tid)

    def _prepare(self, trajectory: Trajectory) -> Tuple[bytes, bytes, int]:
        """Row key, row blob and index value for one trajectory."""
        self.config.bounds.check_stored(trajectory.tid, trajectory.mbr)
        placed = self.index.index(trajectory)
        features = extract_dp_features(
            trajectory.points,
            self.config.dp_tolerance,
            box_mode=self.config.box_mode,
        )
        shard = shard_of(trajectory.tid, self.config.shards)
        key = self._rowkey(shard, placed.value, trajectory.tid)
        blob = encode_row(trajectory.tid, trajectory.points, features)
        return key, blob, placed.value

    def _record_put(self, value: int) -> None:
        self.trajectory_count += 1
        self.value_histogram[value] = self.value_histogram.get(value, 0) + 1

    def put(self, trajectory: Trajectory) -> int:
        """Index, featurise and store one trajectory; returns its value."""
        key, blob, value = self._prepare(trajectory)
        self.table.put(key, blob)
        self._record_put(value)
        return value

    def put_all(
        self, trajectories: Iterable[Trajectory], sorted_ingest: bool = False
    ) -> int:
        """Bulk ingest; returns the number stored.

        With ``sorted_ingest`` the batch is key-sorted before writing,
        turning memtable inserts into appends — the bulk-load idiom for
        LSM stores (HBase bulkload / HFile generation does the same).
        """
        if not sorted_ingest:
            count = 0
            for trajectory in trajectories:
                self.put(trajectory)
                count += 1
            return count
        prepared = [self._prepare(t) for t in trajectories]
        prepared.sort(key=lambda item: item[0])
        for key, blob, value in prepared:
            self.table.put(key, blob)
            self._record_put(value)
        return len(prepared)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def scan_ranges_for(
        self,
        ranges: Sequence[IndexRange],
        shards: Optional[Sequence[int]] = None,
    ) -> List[ScanRange]:
        """Per-shard row-key scan ranges for a set of index-value ranges.

        Every shard must be visited because the salt byte leads the key
        (Section IV-E) — the cost the paper's Figure 19 sweep studies.
        ``shards`` restricts the plan to a subset of salts; the serving
        tier uses this so each shard worker scans only the salts it
        owns.
        """
        if self.key_encoding != INTEGER_KEYS:
            return self._string_scan_ranges_for(ranges, shards)
        shard_ids = (
            range(self.config.shards) if shards is None else sorted(shards)
        )
        out: List[ScanRange] = []
        for shard in shard_ids:
            for index_range in ranges:
                start, stop = rowkey_range(
                    shard, index_range.start, index_range.stop
                )
                out.append(ScanRange(start, stop))
        return out

    def _string_prefix(self, shard: int, value: int) -> bytes:
        element, code = self.index.decode(value)
        return bytes([shard]) + f"{element.sequence_str}#{code:02d}#".encode(
            "utf-8"
        )

    def _string_scan_ranges_for(
        self,
        ranges: Sequence[IndexRange],
        shards: Optional[Sequence[int]] = None,
    ) -> List[ScanRange]:
        """Scan ranges under the TraSS-S string encoding.

        Because ``'#'`` sorts below every digit, depth-first string keys
        are order-isomorphic to the integer values for all non-root
        elements, so a contiguous value range still maps to one key
        range.  Root-element values sort differently (their sequence is
        empty) and are emitted as individual prefix scans.
        """
        root_start = self.index.root_block_start
        shard_ids = (
            range(self.config.shards) if shards is None else sorted(shards)
        )
        out: List[ScanRange] = []
        for shard in shard_ids:
            for index_range in ranges:
                lo, hi = index_range.start, index_range.stop
                for value in range(max(lo, root_start), hi):
                    prefix = self._string_prefix(shard, value)
                    out.append(ScanRange(prefix, prefix + b"\xff"))
                hi = min(hi, root_start)
                if lo < hi:
                    start = self._string_prefix(shard, lo)
                    stop = self._string_prefix(shard, hi - 1) + b"\xff"
                    out.append(ScanRange(start, stop))
        return out

    def record_decoder(self, key: bytes, value: bytes) -> TrajectoryRecord:
        """The scan/refine-path decode (no index value), record-cached.

        Keys embed the table generation, so a cached record can never
        outlive a write to its row: after any mutation the old entry is
        unreachable and ages out of the LRU.  Hits and misses are
        counted as ``record_cache_*`` in :class:`IOMetrics`; cache hits
        deliberately do **not** reduce ``rows_scanned``-style counters,
        which account logical I/O.
        """
        cache = self.record_cache
        if cache is None:
            tid, points, features = decode_row(value)
            return TrajectoryRecord(tid, tuple(points), features, -1)
        cache_key = (bytes(key), self.table.generation)
        record = cache.get(cache_key)
        if record is not None:
            self.table.metrics.record_cache_hits += 1
            return record
        self.table.metrics.record_cache_misses += 1
        tid, points, features = decode_row(value)
        record = TrajectoryRecord(tid, tuple(points), features, -1)
        cache.put(cache_key, record, cost=len(key) + len(value))
        return record

    def decode_record(self, key: bytes, value: bytes) -> TrajectoryRecord:
        tid, points, features = decode_row(value)
        if self.key_encoding == INTEGER_KEYS:
            from repro.kvstore.rowkey import decode_rowkey

            _, index_value, _ = decode_rowkey(key)
        else:
            from repro.kvstore.rowkey import decode_string_rowkey

            _, sequence, code, _ = decode_string_rowkey(key)
            from repro.index.quadrant import Element

            element = Element.from_sequence_str(sequence) if sequence else None
            if element is None:
                from repro.index.quadrant import ROOT

                element = ROOT
            index_value = self.index.value(element, code)
        return TrajectoryRecord(tid, tuple(points), features, index_value)

    def all_records(self) -> Iterator[TrajectoryRecord]:
        """Full-table scan (ground truth / verification paths)."""
        for key, value in self.table.full_scan():
            yield self.decode_record(key, value)

    # ------------------------------------------------------------------
    # Storage statistics (Figures 12 and 13)
    # ------------------------------------------------------------------
    def average_rowkey_bytes(self) -> float:
        """Mean row-key length — the Figure 13(c) metric."""
        total = 0
        count = 0
        for key, _ in self.table.full_scan():
            total += len(key)
            count += 1
        if count == 0:
            raise KVStoreError("no rows stored")
        return total / count

    def resolution_histogram(self) -> Dict[int, int]:
        """Trajectory count per element resolution (Figure 12(a))."""
        out: Dict[int, int] = {}
        for value, count in self.value_histogram.items():
            element, _ = self.index.decode(value)
            out[element.level] = out.get(element.level, 0) + count
        return out

    def position_code_histogram(self) -> Dict[int, int]:
        """Trajectory count per position code (Figure 12(b))."""
        out: Dict[int, int] = {}
        for value, count in self.value_histogram.items():
            _, code = self.index.decode(value)
            out[code] = out.get(code, 0) + count
        return out

    def selectivity(self) -> float:
        """Distinct index values over row count (Figures 14-15)."""
        if self.trajectory_count == 0:
            raise KVStoreError("no rows stored")
        return len(self.value_histogram) / self.trajectory_count

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str, compact: bool = False) -> None:
        """Snapshot the store (config + table) into a directory.

        ``compact=True`` writes regions as compressed mmap segments
        (``.seg``) instead of plain SSTables — same entries, several
        times fewer bytes, and lazily loadable.
        """
        import json
        import os

        from repro.kvstore.persistence import save_table

        save_table(self.table, directory, compact=compact)
        meta = {
            "key_encoding": self.key_encoding,
            # Persisted statistics let `load` skip the full-table scan
            # that would otherwise force every lazy segment block to
            # materialise (they are ignored when a WAL tail exists —
            # the table then differs from the snapshot they describe).
            "stats": {
                "trajectory_count": self.trajectory_count,
                "value_histogram": {
                    str(value): count
                    for value, count in self.value_histogram.items()
                },
            },
            "config": {
                "max_resolution": self.config.max_resolution,
                "bounds": [
                    self.config.bounds.min_x,
                    self.config.bounds.min_y,
                    self.config.bounds.max_x,
                    self.config.bounds.max_y,
                ],
                "shards": self.config.shards,
                "dp_tolerance": self.config.dp_tolerance,
                "measure_name": self.config.measure_name,
                "box_mode": self.config.box_mode,
                "max_planned_elements": self.config.max_planned_elements,
                "range_merge_gap": self.config.range_merge_gap,
                "max_region_rows": self.config.max_region_rows,
                "retry_max_attempts": self.config.retry_max_attempts,
                "retry_backoff_base": self.config.retry_backoff_base,
                "retry_backoff_max": self.config.retry_backoff_max,
                "retry_jitter": self.config.retry_jitter,
                "scan_deadline_seconds": self.config.scan_deadline_seconds,
                "degraded_mode": self.config.degraded_mode,
                "breaker_failure_threshold": (
                    self.config.breaker_failure_threshold
                ),
                "breaker_cooldown_seconds": (
                    self.config.breaker_cooldown_seconds
                ),
                "cache_mb": self.config.cache_mb,
                "plan_cache_size": self.config.plan_cache_size,
                "slow_query_threshold_seconds": (
                    self.config.slow_query_threshold_seconds
                ),
                "slow_query_log_size": self.config.slow_query_log_size,
                "storage_telemetry": self.config.storage_telemetry,
                "heatmap_buckets_per_shard": (
                    self.config.heatmap_buckets_per_shard
                ),
                "heat_decay_queries": self.config.heat_decay_queries,
                "workload_log_size": self.config.workload_log_size,
            },
        }
        with open(os.path.join(directory, "STORE.json"), "w") as fh:
            json.dump(meta, fh, indent=2)

    @classmethod
    def load(cls, directory: str) -> "TrajectoryStore":
        """Restore a store saved with :meth:`save`.

        The value histogram and trajectory count are rebuilt from the
        table, so statistics survive the round trip.
        """
        import json
        import os

        from repro.index.bounds import SpaceBounds
        from repro.kvstore.persistence import load_table

        try:
            with open(os.path.join(directory, "STORE.json")) as fh:
                meta = json.load(fh)
        except FileNotFoundError:
            raise KVStoreError(f"no store metadata in {directory}") from None
        cfg_raw = meta["config"]
        config = TraSSConfig(
            max_resolution=cfg_raw["max_resolution"],
            bounds=SpaceBounds(*cfg_raw["bounds"]),
            shards=cfg_raw["shards"],
            dp_tolerance=cfg_raw["dp_tolerance"],
            measure_name=cfg_raw["measure_name"],
            box_mode=cfg_raw.get("box_mode", "chord"),
            max_planned_elements=cfg_raw["max_planned_elements"],
            range_merge_gap=cfg_raw["range_merge_gap"],
            max_region_rows=cfg_raw["max_region_rows"],
            retry_max_attempts=cfg_raw.get("retry_max_attempts", 4),
            retry_backoff_base=cfg_raw.get("retry_backoff_base", 0.01),
            retry_backoff_max=cfg_raw.get("retry_backoff_max", 1.0),
            retry_jitter=cfg_raw.get("retry_jitter", 0.25),
            scan_deadline_seconds=cfg_raw.get("scan_deadline_seconds"),
            degraded_mode=cfg_raw.get("degraded_mode", False),
            breaker_failure_threshold=cfg_raw.get(
                "breaker_failure_threshold", 5
            ),
            breaker_cooldown_seconds=cfg_raw.get(
                "breaker_cooldown_seconds", 30.0
            ),
            cache_mb=cfg_raw.get("cache_mb", 0.0),
            plan_cache_size=cfg_raw.get("plan_cache_size", 128),
            slow_query_threshold_seconds=cfg_raw.get(
                "slow_query_threshold_seconds"
            ),
            slow_query_log_size=cfg_raw.get("slow_query_log_size", 128),
            storage_telemetry=cfg_raw.get("storage_telemetry", True),
            heatmap_buckets_per_shard=cfg_raw.get(
                "heatmap_buckets_per_shard", 16
            ),
            heat_decay_queries=cfg_raw.get("heat_decay_queries", 512.0),
            workload_log_size=cfg_raw.get("workload_log_size", 1024),
        )
        store = cls(config, meta["key_encoding"])
        store.table = load_table(directory)
        # The executor, caches and telemetry built in __init__ point at
        # the discarded empty table; rebind them to the restored one.
        store.executor = ResilientExecutor.from_config(store.table, config)
        store._wire_caches()
        stats = meta.get("stats")
        if stats is not None and not os.path.exists(
            os.path.join(directory, "wal.log")
        ):
            # The snapshot matches the table exactly (no WAL tail), so
            # the persisted statistics are authoritative — restoring
            # them keeps mmap segments lazy: no full-table scan, no
            # block materialisation at load time.
            store.trajectory_count = int(stats["trajectory_count"])
            store.value_histogram = {
                int(value): count
                for value, count in stats["value_histogram"].items()
            }
        else:
            for key, value in store.table.full_scan():
                record = store.decode_record(key, value)
                store.trajectory_count += 1
                store.value_histogram[record.index_value] = (
                    store.value_histogram.get(record.index_value, 0) + 1
                )
        # Wired after the statistics rebuild scan above, so that scan
        # does not smear synthetic heat across the restored heatmap.
        store._wire_telemetry()
        return store
