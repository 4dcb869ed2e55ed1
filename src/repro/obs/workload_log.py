"""Workload capture and deterministic replay.

Every query the engine answers is appended (type, parameters, query
geometry, wall time, a digest of the answer set) to a
ring-buffered :class:`WorkloadRecorder` that persists with the store
(``TELEMETRY.json`` beside ``STORE.json``).  ``repro replay``
re-executes the captured workload against the current store and checks
every answer digest — byte-identical answers or a named divergence.
Each entry's ``seconds`` is the query's wall time, so the recorder is
also where a slow local query shows up; cluster latency is the
coordinator's SLO histograms (:mod:`repro.serve.obs`).

The digest is a sha256 over a canonical serialisation of the answer
set (sorted ``(tid, repr(distance))`` pairs for threshold queries, the
ordered ``(repr(distance), tid)`` list for top-k), so it is invariant
to dict ordering but sensitive to any change in membership, ranking or
distance — ``repr`` round-trips floats exactly.  It is taken when the
query is recorded: digesting lazily would keep every answer set in the
ring alive until export (+5.9 MB over 1 024 entries of ~50 answers).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geometry.trajectory import Trajectory


def answers_digest(kind: str, result) -> str:
    """The canonical sha256 digest of a query result's answer set.

    The canonical form is ``json.dumps(pairs, separators=(",", ":"))``
    of the pairs above.  It is written out here instead, byte for byte
    and without an encoder per call: tids are JSON-escaped the way
    ``json.dumps`` escapes them, and a float ``repr`` needs no escaping.
    Threshold tids are unique, so sorting the items sorts by tid.
    """
    if kind == "threshold":
        pairs = [
            '[%s,"%r"]' % (_json_string(tid), float(dist))
            for tid, dist in sorted(result.answers.items())
        ]
    else:
        pairs = [
            '["%r",%s]' % (float(dist), _json_string(tid))
            for dist, tid in result.answers
        ]
    blob = "[%s]" % ",".join(pairs)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class WorkloadEntry:
    """One captured query."""

    seq: int
    kind: str  # "threshold" | "topk"
    tid: str
    #: the query's own (immutable) point tuple, not a copy
    points: Sequence[Tuple[float, float]]
    parameter: float  # eps or k
    measure: Optional[str]
    seconds: float
    answers: int
    answers_digest: str

    def query(self) -> Trajectory:
        return Trajectory(self.tid, self.points)

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
        # Logs written before the per-query I/O delta was dropped carry
        # ``io_delta`` and ``generation`` too; nothing reads them.
        return cls(
            seq=int(data["seq"]),
            kind=data["kind"],
            tid=data["tid"],
            points=tuple(tuple(p) for p in data["points"]),
            parameter=float(data["parameter"]),
            measure=data.get("measure"),
            seconds=float(data["seconds"]),
            answers=int(data.get("answers", 0)),
            answers_digest=data["answers_digest"],
        )


class WorkloadRecorder:
    """A ring buffer of captured queries.

    ``enabled`` gates capture; :meth:`paused` suspends it temporarily
    (replay runs under a pause so replaying a workload does not append
    it to itself).  Thread-safe: queries may record from any thread.
    """

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
        """Capture one answered query.  The digest is taken now, so the
        entry holds no answer set."""
        if not self.enabled:
            return None
        digest = answers_digest(kind, result)
        with self._lock:
            entry = WorkloadEntry(
                self._seq,
                kind,
                query.tid,
                query.points,
                float(parameter),
                measure,
                seconds,
                len(result.answers),
                digest,
            )
            self._seq += 1
            self._entries.append(entry)
            return entry

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[WorkloadEntry]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

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

    # ------------------------------------------------------------------
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
# Replay
# ----------------------------------------------------------------------
@dataclass
class ReplayOutcome:
    """Per-entry replay verdict."""

    entry: WorkloadEntry
    seconds: float
    answers: int
    digest: str

    @property
    def matched(self) -> bool:
        return self.digest == self.entry.answers_digest

    def to_json(self) -> Dict[str, Any]:
        return {
            "seq": self.entry.seq,
            "kind": self.entry.kind,
            "tid": self.entry.tid,
            "parameter": self.entry.parameter,
            "matched": self.matched,
            "recorded_digest": self.entry.answers_digest,
            "replayed_digest": self.digest,
            "recorded_seconds": self.entry.seconds,
            "replayed_seconds": self.seconds,
            "recorded_answers": self.entry.answers,
            "replayed_answers": self.answers,
        }


@dataclass
class ReplayReport:
    outcomes: List[ReplayOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def mismatches(self) -> List[ReplayOutcome]:
        return [o for o in self.outcomes if not o.matched]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "matched": self.total - len(self.mismatches),
            "mismatched": len(self.mismatches),
            "ok": self.ok,
            "outcomes": [o.to_json() for o in self.outcomes],
        }

    def render(self) -> str:
        lines = [
            f"replayed {self.total} queries: "
            f"{self.total - len(self.mismatches)} matched, "
            f"{len(self.mismatches)} diverged"
        ]
        for o in self.mismatches:
            lines.append(
                f"  DIVERGED seq={o.entry.seq} {o.entry.kind} "
                f"tid={o.entry.tid} param={o.entry.parameter:g}: "
                f"recorded {o.entry.answers} answers "
                f"({o.entry.answers_digest[:12]}…), replayed "
                f"{o.answers} ({o.digest[:12]}…)"
            )
        return "\n".join(lines)


def replay_workload(
    engine, entries: Optional[Iterable[WorkloadEntry]] = None
) -> ReplayReport:
    """Re-execute a captured workload in sequence order.

    Uses the engine's recorded entries by default.  The recorder is
    paused for the duration, so replays never append to the log they
    replay from; answers are digested the same way capture digested
    them and compared entry by entry.
    """
    import time

    if entries is None:
        recorder = engine.workload_recorder
        entries = recorder.entries() if recorder is not None else []
    entries = sorted(entries, key=lambda e: e.seq)
    report = ReplayReport()
    recorder = engine.workload_recorder
    with recorder.paused() if recorder is not None else nullcontext():
        for entry in entries:
            query = entry.query()
            started = time.perf_counter()
            if entry.kind == "threshold":
                result = engine.threshold_search(
                    query, entry.parameter, measure=entry.measure
                )
            else:
                result = engine.topk_search(
                    query, int(entry.parameter), measure=entry.measure
                )
            elapsed = time.perf_counter() - started
            report.outcomes.append(
                ReplayOutcome(
                    entry=entry,
                    seconds=elapsed,
                    answers=len(result.answers),
                    digest=answers_digest(entry.kind, result),
                )
            )
    return report


# ----------------------------------------------------------------------
# Persistence: TELEMETRY.json beside STORE.json
# ----------------------------------------------------------------------
TELEMETRY_FILE = "TELEMETRY.json"


def save_observability(engine, directory: str) -> None:
    """Persist the heatmap and workload log beside the store snapshot."""
    import os

    from repro.kvstore.persistence import write_atomic

    heatmap = engine.heatmap
    recorder = engine.workload_recorder
    if heatmap is None and recorder is None:
        return
    payload: Dict[str, Any] = {"version": 1}
    if heatmap is not None:
        payload["heatmap"] = heatmap.to_json()
    if recorder is not None:
        payload["workload"] = recorder.to_json()
    write_atomic(os.path.join(directory, TELEMETRY_FILE), json.dumps(payload))


def load_observability(engine, directory: str) -> bool:
    """Restore persisted telemetry into a freshly loaded engine.

    Missing file (older snapshot) or an incompatible heatmap grid (the
    store was rebuilt with different shards/buckets) degrades to the
    fresh empty state.  A torn or corrupt file raises
    :class:`~repro.exceptions.KVStoreError`.  Returns True when anything
    was restored.
    """
    import os

    from repro.kvstore.persistence import read_json

    path = os.path.join(directory, TELEMETRY_FILE)
    if not os.path.exists(path):
        return False
    payload = read_json(path)
    restored = False
    heatmap = engine.heatmap
    if heatmap is not None and "heatmap" in payload:
        from repro.obs.heatmap import KeySpaceHeatmap

        persisted = KeySpaceHeatmap.from_json(payload["heatmap"])
        restored = heatmap.restore_from(persisted)
    recorder = engine.workload_recorder
    if recorder is not None and "workload" in payload:
        recorder.restore_from_json(payload["workload"])
        restored = True
    return restored
