"""The per-row / per-query storage telemetry, kept as the oracle.

Default-on storage telemetry now attributes key-space heat once per
range (or through a monotone bucket cursor), decays heat in O(1) by
scaling the weight a row adds, and records a query from the raw
``IOMetrics`` counter tuple.  The implementations those replaced live
on here unchanged:

* :class:`KeySpaceHeatmap` — one ``bisect`` per scanned row and a
  rebuilt heat list per query;
* :func:`scan` — ``KVTable.scan`` recording into the heatmap row by row
  (bind it over a table's ``scan``);
* :func:`answers_digest`, :class:`WorkloadEntry` and
  :class:`WorkloadRecorder` — a copied point list per query;
* :func:`observe_query` — ``TraSS._observe_query`` (bind it over an
  engine's method to drive the recorder above).

:func:`install` binds all of it onto one engine.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import threading
import types
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.geometry.trajectory import Trajectory

HALF_LIFE_QUERIES = 512.0


# ----------------------------------------------------------------------
# obs/heatmap.py
# ----------------------------------------------------------------------
class KeySpaceHeatmap:
    """Exponentially-decayed scan heat over fixed row-key buckets."""

    def __init__(
        self,
        boundaries: Sequence[bytes],
        half_life: float = HALF_LIFE_QUERIES,
    ):
        #: sorted interior boundaries; bucket ``i`` covers
        #: ``[boundaries[i-1], boundaries[i])`` (open at both far ends)
        self.boundaries: List[bytes] = list(boundaries)
        #: heat to halve per this many recorded queries (<= 0 disables
        #: decay)
        self.half_life = half_life
        self._decay = (
            0.5 ** (1.0 / half_life) if half_life > 0 else 1.0
        )
        n = len(self.boundaries) + 1
        #: decayed heat per bucket
        self.heat: List[float] = [0.0] * n
        #: undecayed lifetime scanned-row counts per bucket
        self.rows: List[int] = [0] * n
        #: recorded queries (decay ticks) so far
        self.tick = 0

    # ------------------------------------------------------------------
    def merge_from(self, other: "KeySpaceHeatmap") -> None:
        """Add another map's heat and row counts bucket by bucket (the
        cluster heatmap folds per-partition grids this way)."""
        for i, h in enumerate(other.heat):
            if h:
                self.heat[i] += h
        for i, r in enumerate(other.rows):
            if r:
                self.rows[i] += r

    # ------------------------------------------------------------------
    def record(self, key: bytes, weight: float = 1.0) -> None:
        """Attribute one scanned row to its key-space bucket."""
        i = bisect.bisect_right(self.boundaries, key)
        self.heat[i] += weight
        self.rows[i] += 1

    def advance_tick(self) -> None:
        """Decay all heat by one query's worth of half-life."""
        self.tick += 1
        if self._decay >= 1.0:
            return
        d = self._decay
        self.heat = [h * d for h in self.heat]

    @property
    def total_heat(self) -> float:
        return sum(self.heat)

    @property
    def total_rows(self) -> int:
        return sum(self.rows)

    # ------------------------------------------------------------------
    # Read-time attribution
    # ------------------------------------------------------------------
    def bucket_start(self, i: int) -> Optional[bytes]:
        return None if i == 0 else self.boundaries[i - 1]

    def bucket_stop(self, i: int) -> Optional[bytes]:
        return None if i >= len(self.boundaries) else self.boundaries[i]

    def shard_of_bucket(self, i: int) -> int:
        """The salt byte a bucket's keys start with (bucket 0 → 0)."""
        start = self.bucket_start(i)
        return 0 if start is None or not start else start[0]

    def shard_heat(self) -> Dict[int, float]:
        """Decayed heat per salt bucket — the salt-skew evidence."""
        out: Dict[int, float] = {}
        for i, h in enumerate(self.heat):
            shard = self.shard_of_bucket(i)
            out[shard] = out.get(shard, 0.0) + h
        return out

    def region_heat(self, table) -> List[Tuple[Any, float]]:
        """Decayed heat mapped onto the table's *current* regions."""
        heats = [0.0] * table.num_regions
        for i, h in enumerate(self.heat):
            start = self.bucket_start(i)
            idx = 0 if start is None else table._region_index_for(start)
            heats[idx] += h
        return list(zip(table.regions, heats))

    def hot_buckets(
        self, limit: int = 8, min_share: float = 0.01
    ) -> List[Tuple[int, float]]:
        """``(bucket index, heat)`` of the hottest buckets, hot first."""
        total = self.total_heat
        if total <= 0:
            return []
        ranked = sorted(
            ((i, h) for i, h in enumerate(self.heat) if h / total >= min_share),
            key=lambda pair: -pair[1],
        )
        return ranked[:limit]

    # ------------------------------------------------------------------
    # Persistence / export
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "half_life": self.half_life,
            "tick": self.tick,
            "boundaries": [b.hex() for b in self.boundaries],
            "heat": list(self.heat),
            "rows": list(self.rows),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "KeySpaceHeatmap":
        heatmap = cls(
            [bytes.fromhex(b) for b in data["boundaries"]],
            half_life=float(data.get("half_life", HALF_LIFE_QUERIES)),
        )
        heat = [float(h) for h in data.get("heat", [])]
        rows = [int(r) for r in data.get("rows", [])]
        if len(heat) == len(heatmap.heat):
            heatmap.heat = heat
        if len(rows) == len(heatmap.rows):
            heatmap.rows = rows
        heatmap.tick = int(data.get("tick", 0))
        return heatmap

    def restore_from(self, other: "KeySpaceHeatmap") -> bool:
        """Adopt a persisted map's state if the grids are compatible."""
        if other.boundaries != self.boundaries:
            return False
        self.heat = list(other.heat)
        self.rows = list(other.rows)
        self.tick = other.tick
        return True


# ----------------------------------------------------------------------
# kvstore/table.py: KVTable.scan
# ----------------------------------------------------------------------
def scan(self, start=None, stop=None, row_filter=None):
    """Rows in ``[start, stop)`` surviving the server-side filter."""
    injector = self.fault_injector
    heatmap = self.heatmap
    self.metrics.range_seeks += 1
    for region in self._regions_overlapping(start, stop):
        if injector is not None:
            injector.on_region_scan_start(self, region)
        self.metrics.regions_visited += 1
        for key, value in self._region_rows(region, start, stop):
            self.metrics.rows_scanned += 1
            self.metrics.bytes_read += len(key) + len(value)
            if heatmap is not None:
                heatmap.record(key)
            if injector is not None:
                injector.on_row_scanned(self, region)
            if row_filter is not None:
                self.metrics.filter_evaluations += 1
                if not row_filter.accept(key, value):
                    self.metrics.filter_rejections += 1
                    continue
            self.metrics.rows_returned += 1
            yield key, value


# ----------------------------------------------------------------------
# obs/workload_log.py
# ----------------------------------------------------------------------
def answers_digest(kind: str, result) -> str:
    """The canonical sha256 digest of a query result's answer set."""
    if kind == "threshold":
        canonical: Any = sorted(
            (tid, repr(float(dist))) for tid, dist in result.answers.items()
        )
    else:
        canonical = [
            (repr(float(dist)), tid) for dist, tid in result.answers
        ]
    blob = json.dumps(canonical, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class WorkloadEntry:
    """One captured query."""

    seq: int
    kind: str  # "threshold" | "topk"
    tid: str
    points: List[Tuple[float, float]]
    parameter: float  # eps or k
    measure: Optional[str]
    seconds: float
    answers: int
    answers_digest: str

    def query(self) -> Trajectory:
        return Trajectory(self.tid, [tuple(p) for p in self.points])

    def to_json(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "tid": self.tid,
            "points": [list(p) for p in self.points],
            "parameter": self.parameter,
            "measure": self.measure,
            "seconds": self.seconds,
            "answers": self.answers,
            "answers_digest": self.answers_digest,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "WorkloadEntry":
        return cls(
            seq=int(data["seq"]),
            kind=data["kind"],
            tid=data["tid"],
            points=[tuple(p) for p in data["points"]],
            parameter=float(data["parameter"]),
            measure=data.get("measure"),
            seconds=float(data["seconds"]),
            answers=int(data.get("answers", 0)),
            answers_digest=data["answers_digest"],
        )


class WorkloadRecorder:
    """A ring buffer of captured queries."""

    def __init__(self, capacity: int = 1024, enabled: bool = True):
        self.capacity = capacity
        self.enabled = enabled
        self._entries: deque = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()

    def record(
        self,
        kind: str,
        query: Trajectory,
        parameter: float,
        measure: Optional[str],
        seconds: float,
        result,
    ) -> Optional[WorkloadEntry]:
        if not self.enabled:
            return None
        with self._lock:
            entry = WorkloadEntry(
                seq=self._seq,
                kind=kind,
                tid=query.tid,
                points=[tuple(p) for p in query.points],
                parameter=float(parameter),
                measure=measure,
                seconds=seconds,
                answers=len(result.answers),
                answers_digest=answers_digest(kind, result),
            )
            self._seq += 1
            self._entries.append(entry)
            return entry

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[WorkloadEntry]:
        with self._lock:
            return list(self._entries)

    class _Paused:
        def __init__(self, recorder: "WorkloadRecorder"):
            self.recorder = recorder
            self.was_enabled = recorder.enabled

        def __enter__(self):
            self.recorder.enabled = False
            return self.recorder

        def __exit__(self, *exc):
            self.recorder.enabled = self.was_enabled

    def paused(self) -> "WorkloadRecorder._Paused":
        return WorkloadRecorder._Paused(self)

    def to_json(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "next_seq": self._seq,
                "entries": [e.to_json() for e in self._entries],
            }

    def restore_from_json(self, data: Dict[str, Any]) -> None:
        with self._lock:
            self._entries.clear()
            for raw in data.get("entries", []):
                self._entries.append(WorkloadEntry.from_json(raw))
            self._seq = int(data.get("next_seq", len(self._entries)))


# ----------------------------------------------------------------------
# core/engine.py: TraSS._observe_query
# ----------------------------------------------------------------------
def observe_query(
    self,
    kind: str,
    query: Trajectory,
    parameter: float,
    seconds: float,
    result,
    measure: Optional[str] = None,
    record: bool = False,
    origin: str = "local",
    fanout=None,
) -> None:
    """Per-query bookkeeping: latency histogram, query counters, the
    slow-query log, the workload recorder and heat decay."""
    self.registry.histogram(
        "trass.query.seconds", "query wall time in seconds"
    ).observe(seconds)
    self.registry.counter(
        f"trass.query.{kind}.count", f"{kind} queries answered"
    ).inc()
    recorder = self._workload_recorder
    if recorder is not None and recorder.enabled and record:
        recorder.record(
            kind=kind,
            query=query,
            parameter=parameter,
            measure=measure,
            seconds=seconds,
            result=result,
        )
    heatmap = self.heatmap
    if heatmap is not None:
        heatmap.advance_tick()


def install(engine) -> None:
    """Run ``engine``'s storage telemetry on the oracle: the old scan on
    its table, an old heatmap and an old recorder holding the live
    ones' state, and the old per-query bookkeeping."""
    table = engine.store.table
    table.scan = types.MethodType(scan, table)
    table.heatmap = KeySpaceHeatmap.from_json(table.heatmap.to_json())
    recorder = WorkloadRecorder()
    recorder.restore_from_json(engine._workload_recorder.to_json())
    engine._workload_recorder = recorder
    engine._observe_query = types.MethodType(observe_query, engine)
