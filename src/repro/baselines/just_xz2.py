"""JUST / TrajMesa-style baseline: XZ2 over the key-value substrate.

This is the paper's pivotal comparison.  JUST (ICDE'20) and TrajMesa
store trajectories under GeoMesa's XZ2 index value and, for a
similarity query, scan every element whose enlarged element intersects
the extended query window, filtering candidates by MBR before the exact
measure ("they do not prune index spaces that intersect the MBR of a
query trajectory", Section I).  Running it over the identical
:mod:`repro.kvstore` table makes the rows-scanned comparison with XZ*
an apples-to-apples measurement.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.baselines.base import BaselineResult, SimilaritySearchBaseline
from repro.core.codec import encode_row
from repro.core.storage import TrajectoryRecord
from repro.features.dp_features import extract_dp_features
from repro.geometry.mbr import MBR
from repro.geometry.trajectory import Trajectory
from repro.index.bounds import SpaceBounds
from repro.index.xz2 import XZ2Index
from repro.kvstore.metrics import IOMetrics
from repro.kvstore.rowkey import encode_rowkey, rowkey_range, shard_of
from repro.kvstore.table import KVTable, ScanRange


class JustXZ2Baseline(SimilaritySearchBaseline):
    """XZ2-indexed trajectories in a key-value table."""

    name = "JUST"

    def __init__(
        self,
        measure: str = "frechet",
        max_resolution: int = 16,
        bounds: Optional[SpaceBounds] = None,
        shards: int = 8,
        dp_tolerance: float = 0.01,
    ):
        super().__init__(measure)
        self.index = XZ2Index(max_resolution, bounds)
        self.shards = shards
        self.dp_tolerance = dp_tolerance
        self.table = KVTable(name="just")
        self.build_seconds = 0.0

    @property
    def metrics(self) -> IOMetrics:
        return self.table.metrics

    # ------------------------------------------------------------------
    def build(self, trajectories: Iterable[Trajectory]) -> None:
        started = time.perf_counter()
        for trajectory in trajectories:
            placed = self.index.index(trajectory)
            shard = shard_of(trajectory.tid, self.shards)
            key = encode_rowkey(shard, placed.value, trajectory.tid)
            features = extract_dp_features(trajectory, self.dp_tolerance)
            self.table.put(key, encode_row(trajectory.tid, trajectory.points, features))
        self.build_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    def _scan_candidates(
        self, window: MBR, query_mbr_ext: MBR
    ) -> Tuple[List[Trajectory], int]:
        """Scan all XZ2 ranges for ``window``; MBR-filter candidates."""
        ranges = self.index.window_ranges(window)
        scan_ranges: List[ScanRange] = []
        for shard in range(self.shards):
            for r in ranges:
                start, stop = rowkey_range(shard, r.start, r.stop)
                scan_ranges.append(ScanRange(start, stop))
        before = self.metrics.snapshot()
        candidates: List[Trajectory] = []
        for _, value in self.table.scan_ranges(scan_ranges):
            record = TrajectoryRecord.from_row(value)
            if record.mbr.intersects(query_mbr_ext):
                candidates.append(record.as_trajectory())
        retrieved = self.metrics.diff(before)["rows_scanned"]
        return candidates, retrieved

    def threshold_search(self, query: Trajectory, eps: float) -> BaselineResult:
        started = time.perf_counter()
        window = query.mbr.expanded(eps)
        candidates, retrieved = self._scan_candidates(window, window)
        return self._verify(query, eps, candidates, retrieved, started)

    def topk_search(self, query: Trajectory, k: int) -> BaselineResult:
        """Expanding-window top-k: widen the query window until at least
        ``k`` candidates appear, then verify exactly and re-check that
        the k-th distance is inside the explored radius."""
        started = time.perf_counter()
        eps = max(query.mbr.width, query.mbr.height, 1e-6) * 0.25
        retrieved_total = 0
        while True:
            window = query.mbr.expanded(eps)
            candidates, retrieved = self._scan_candidates(window, window)
            retrieved_total += retrieved
            if len(candidates) >= k or eps > 4 * max(
                self.index.bounds.width, self.index.bounds.height
            ):
                result = self._rank(query, k, candidates, retrieved_total, started)
                # Sound stop: the k-th answer must be closer than the
                # explored radius, otherwise something outside the
                # window could still beat it.
                if (
                    len(result.ranked) == k
                    and result.ranked[-1][0] <= eps
                ) or eps > 4 * max(
                    self.index.bounds.width, self.index.bounds.height
                ):
                    result.candidates = len(candidates)
                    return result
            eps *= 2.0
