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

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.codec import decode_tail, encode_row, read_coords, read_head
from repro.core.config import TraSSConfig
from repro.core.executor import ResilientExecutor
from repro.exceptions import KVStoreError, QueryError
from repro.features.dp_features import DPFeatures, extract_dp_features
from repro.geometry.mbr import MBR
from repro.geometry.trajectory import ColumnView, Columns, Trajectory
from repro.index.ranges import IndexRange
from repro.index.xzstar import IndexedTrajectory, XZStarIndex
from repro.kvstore.metrics import IOMetrics
from repro.kvstore.rowkey import (
    encode_rowkey,
    encode_string_rowkey,
    rowkey_ranges,
    shard_of,
)
from repro.kvstore.table import KVTable, ScanRange

INTEGER_KEYS = "integer"
STRING_KEYS = "string"


class TrajectoryRecord:
    """A stored row, decoded in the order the local filter reads it.

    :meth:`from_row` checks the row's framing and reads only ``tid``,
    ``start`` and ``end``, which is all Lemma 12 and Lemma 5's endpoint
    test need.  The coordinates, ``mbr``, ``points`` and ``features``
    are decoded on first touch and kept on the record, so a row the
    head rejects is never unpacked and a survivor is unpacked once.
    """

    __slots__ = (
        "tid",
        "start",
        "end",
        "index_value",
        "_value",
        "_counts",
        "_coords",
        "_mbr",
        "_points",
        "_features",
    )

    @classmethod
    def from_row(cls, value: bytes, index_value: int = -1) -> "TrajectoryRecord":
        """The record of one row value; a corrupt row raises
        :class:`KVStoreError` here, or for a bad representative index on
        first touch of ``features``."""
        record = cls.__new__(cls)
        record.tid, record.start, record.end, n_points, n_rep, n_boxes = (
            read_head(value)
        )
        record._counts = (n_points, n_rep, n_boxes)
        record.index_value = index_value
        record._value = value
        record._coords = record._mbr = record._points = record._features = None
        return record

    def _flat_coords(self) -> Tuple[float, ...]:
        coords = self._coords
        if coords is None:
            coords = self._coords = read_coords(self._value, self._counts[0])
        return coords

    @property
    def columns(self) -> Columns:
        """The x and y coordinates as two float tuples, sliced from the
        flat coordinates decoded once: what the measures' kernels index.

        Sliced on each read rather than kept: two slices cost less than
        a kernel's first row, and keeping them on every refined record
        raised peak RSS on ``ingest_reopen`` by ~3 MB.
        """
        coords = self._flat_coords()
        return coords[0::2], coords[1::2]

    @property
    def mbr(self) -> MBR:
        mbr = self._mbr
        if mbr is None:
            xs, ys = self.columns
            mbr = self._mbr = MBR(min(xs), min(ys), max(xs), max(ys))
        return mbr

    @property
    def points(self) -> Tuple[Tuple[float, float], ...]:
        points = self._points
        if points is None:
            points = self._points = tuple(zip(*self.columns))
        return points

    @property
    def features(self) -> DPFeatures:
        features = self._features
        if features is None:
            rep, frames = decode_tail(self._value, *self._counts)
            coords = self._flat_coords()
            features = self._features = DPFeatures(
                rep_indexes=rep,
                rep_points=tuple((coords[2 * i], coords[2 * i + 1]) for i in rep),
                frames=frames,
            )
        return features

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
        #: index value -> number of stored trajectories; written only by
        #: :meth:`_count_value`
        self.value_histogram: Dict[int, int] = {}
        #: the histogram's keys, sorted (the occupied index values);
        #: ``None`` after a new value until the read path next needs it
        self._occupied: Optional[List[int]] = None
        #: bumped whenever a new index value appears, so a plan made
        #: from the occupied values (the global pruner's cache key)
        #: is known stale
        self.occupancy_version = 0
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
        """Attach the key-space heatmap when configured.

        Builds the fixed heatmap grid from the store's shape and hangs
        it off the table.  With ``config.storage_telemetry`` off the
        table's ``heatmap`` stays ``None`` and the scan path does no
        telemetry work at all.  Called again after :meth:`load` replaces
        the table (the grid depends only on config, so persisted heat
        can be restored on top).
        """
        if not self.config.storage_telemetry:
            self.table.heatmap = None
            return
        from repro.obs.heatmap import KeySpaceHeatmap, key_space_boundaries

        self.table.heatmap = KeySpaceHeatmap(key_space_boundaries(self))

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
    def _rowkey(self, shard: int, placed: IndexedTrajectory) -> bytes:
        if self.key_encoding == INTEGER_KEYS:
            return encode_rowkey(shard, placed.value, placed.tid)
        element = placed.element
        return encode_string_rowkey(
            shard, element.sequence_str, placed.position_code, placed.tid
        )

    def _prepare(self, trajectory: Trajectory) -> Tuple[bytes, bytes, int]:
        """Row key, row blob and index value for one trajectory.

        The coordinate columns are read once, into a view: the caller's
        trajectory is left as it came, with no columns or MBR cached.
        """
        view = ColumnView.of(trajectory)
        self.config.bounds.check_stored(view.tid, view.mbr)
        placed = self.index.index(view)
        features = extract_dp_features(view, self.config.dp_tolerance)
        shard = shard_of(view.tid, self.config.shards)
        key = self._rowkey(shard, placed)
        blob = encode_row(view.tid, trajectory.points, features)
        return key, blob, placed.value

    def _record_put(self, value: int) -> None:
        self.trajectory_count += 1
        self._count_value(value)

    def _count_value(self, value: int, count: int = 1) -> None:
        """The one writer of ``value_histogram``: every put, and on
        :meth:`load` every persisted or re-scanned row, is counted here.

        Invariant: the histogram's keys include the index value of every
        key in the table.  The store is the table's only writer and has
        no delete, so a value counted here stays occupied; the read path
        bisects these keys (:meth:`holds_index_values`) instead of
        walking the table.
        """
        histogram = self.value_histogram
        if value in histogram:
            histogram[value] += count
        else:
            histogram[value] = count
            self._occupied = None
            self.occupancy_version += 1

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
    def planned_scan_ranges(
        self,
        ranges: Sequence[IndexRange],
        shards: Optional[Sequence[int]] = None,
    ) -> List[ScanRange]:
        """Per-shard row-key ranges for a set of index-value ranges: one
        per planned ``(range, salt)`` pair, occupied or not.

        The salt byte leads the key (Section IV-E), so a plan names
        every shard's copy of each range — the quantity the paper's
        Figure 19 sweep studies.  ``shards`` restricts the plan to a
        subset of salts (a serving partition's own).  The read path
        dispatches :meth:`scan_ranges_for` instead; this mapping serves
        callers that account the plan itself, such as the coordinator's
        unreachable-partition report.
        """
        return [
            ScanRange(start, stop)
            for start, stop in self._key_ranges(ranges, shards)
        ]

    def scan_ranges_for(
        self,
        ranges: Sequence[IndexRange],
        shards: Optional[Sequence[int]] = None,
    ) -> List[ScanRange]:
        """The planned pairs of :meth:`planned_scan_ranges` that the
        table cannot prove empty, in the same order.

        Most ``(range, salt)`` pairs hold no key.  A range holding no
        occupied index value is dropped first, by one bisect, without
        packing a key; only the ranges left are mapped to row keys and
        checked salt by salt with ``KVTable.holds_any``.  A dropped pair
        holds no row, hence no answer, and costs no seek.
        """
        holds = self.holds_index_values
        kept = [r for r in ranges if holds(r.start, r.stop)]
        if not kept:
            return []
        holds_any = self.table.holds_any
        return [
            ScanRange(start, stop)
            for start, stop in self._key_ranges(kept, shards)
            if holds_any(start, stop)
        ]

    def holds_index_values(self, start: int, stop: int) -> bool:
        """Whether some stored trajectory has an index value in
        ``[start, stop)``: one bisect over the occupied values, no key
        packed and no table walked.

        False proves the values hold no row in any shard (the invariant
        of :meth:`_count_value`), so neither threshold planning nor
        top-k walks an empty element subtree or emits an empty code
        block, and no segment block is decoded to learn it.
        """
        occupied = self._occupied
        if occupied is None:
            occupied = self._occupied = sorted(self.value_histogram)
        i = bisect_left(occupied, start)
        return i < len(occupied) and occupied[i] < stop

    def _key_ranges(
        self,
        ranges: Sequence[IndexRange],
        shards: Optional[Sequence[int]],
    ) -> List[Tuple[bytes, bytes]]:
        """``(start, stop)`` row keys per planned pair, shard-major."""
        shard_ids = (
            range(self.config.shards) if shards is None else sorted(shards)
        )
        if self.key_encoding != INTEGER_KEYS:
            return self._string_key_ranges(ranges, shard_ids)
        return rowkey_ranges(shard_ids, [(r.start, r.stop) for r in ranges])

    def _string_prefix(self, shard: int, value: int) -> bytes:
        element, code = self.index.decode(value)
        return bytes([shard]) + f"{element.sequence_str}#{code:02d}#".encode(
            "utf-8"
        )

    def _string_key_ranges(
        self, ranges: Sequence[IndexRange], shard_ids: Iterable[int]
    ) -> List[Tuple[bytes, bytes]]:
        """Key ranges under the TraSS-S string encoding.

        Because ``'#'`` sorts below every digit, depth-first string keys
        are order-isomorphic to the integer values for all non-root
        elements, so a contiguous value range still maps to one key
        range.  Root-element values sort differently (their sequence is
        empty) and are emitted as individual prefix scans.
        """
        root_start = self.index.root_block_start
        out: List[Tuple[bytes, bytes]] = []
        for shard in shard_ids:
            for index_range in ranges:
                lo, hi = index_range.start, index_range.stop
                for value in range(max(lo, root_start), hi):
                    prefix = self._string_prefix(shard, value)
                    out.append((prefix, prefix + b"\xff"))
                hi = min(hi, root_start)
                if lo < hi:
                    start = self._string_prefix(shard, lo)
                    stop = self._string_prefix(shard, hi - 1) + b"\xff"
                    out.append((start, stop))
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
            return TrajectoryRecord.from_row(value)
        cache_key = (bytes(key), self.table.generation)
        record = cache.get(cache_key)
        if record is not None:
            self.table.metrics.record_cache_hits += 1
            return record
        self.table.metrics.record_cache_misses += 1
        record = TrajectoryRecord.from_row(value)
        cache.put(cache_key, record, cost=len(key) + len(value))
        return record

    def decode_record(self, key: bytes, value: bytes) -> TrajectoryRecord:
        """The record of one row, with the index value its key carries."""
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
        return TrajectoryRecord.from_row(value, index_value)

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
    def save(self, directory: str) -> None:
        """Snapshot the store (config + table) into a directory; regions
        are written as compressed, lazily loadable mmap segments."""
        import json
        import os

        from repro.kvstore.persistence import save_table, write_atomic

        save_table(self.table, directory)
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
            "config": self.config.to_json(),
        }
        write_atomic(
            os.path.join(directory, "STORE.json"), json.dumps(meta, indent=2)
        )

    @classmethod
    def load(cls, directory: str) -> "TrajectoryStore":
        """Restore a store saved with :meth:`save`.

        The value histogram and trajectory count come from the
        persisted statistics, or are rebuilt from the table when a WAL
        tail exists, so statistics (and the occupied index values the
        read path bisects) survive the round trip.
        """
        import os

        from repro.kvstore.persistence import load_table, read_json

        try:
            meta = read_json(os.path.join(directory, "STORE.json"))
        except FileNotFoundError:
            raise KVStoreError(f"no store metadata in {directory}") from None
        where = f"STORE.json in {directory}"
        if not isinstance(meta, dict):
            raise KVStoreError(f"{where} is not a JSON object")
        for key in ("config", "key_encoding"):
            if key not in meta:
                raise KVStoreError(f"{where} lacks {key!r}")
        config = TraSSConfig.from_json(meta["config"], where)
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
            for value, count in stats["value_histogram"].items():
                store._count_value(int(value), count)
        else:
            for key, value in store.table.full_scan():
                store._record_put(store.decode_record(key, value).index_value)
        # Wired after the statistics rebuild scan above, so that scan
        # does not smear synthetic heat across the restored heatmap.
        store._wire_telemetry()
        return store
