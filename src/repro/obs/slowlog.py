"""Slow-query log: a bounded ring buffer of queries over threshold.

Every query the engine answers reports its wall time here; entries at
or above ``threshold_seconds`` are kept in a ``deque(maxlen=capacity)``
— O(1) per query, bounded memory, oldest entries evicted first.  The
threshold comes from :class:`~repro.core.config.TraSSConfig`
(``slow_query_threshold_seconds``) and persists with the store.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class SlowQueryEntry:
    """One over-threshold query."""

    #: "threshold" or "topk"
    kind: str
    query_tid: str
    #: eps for threshold queries, k for top-k
    parameter: float
    seconds: float
    candidates: int
    answers: int
    completeness: float
    #: wall-clock time of record (epoch seconds)
    timestamp: float = field(default_factory=time.time)
    #: where the query executed: "local" (this process) or "cluster"
    #: (scatter-gathered through a serving coordinator)
    origin: str = "local"
    #: for cluster queries, one dict per partition touched —
    #: ``{"partition", "replica", "attempts", "hedged", "reached"}`` —
    #: so a slow entry names which shard/replica served (or stalled) it
    fanout: Optional[Tuple[Dict[str, Any], ...]] = None


class SlowQueryLog:
    """Fixed-capacity, thread-safe ring buffer of slow queries."""

    def __init__(
        self,
        capacity: int = 128,
        threshold_seconds: Optional[float] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: queries at/above this duration are logged; ``None`` disables
        self.threshold_seconds = threshold_seconds
        self._entries: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.threshold_seconds is not None

    def observe(
        self,
        kind: str,
        query_tid: str,
        parameter: float,
        seconds: float,
        candidates: int,
        answers: int,
        completeness: float = 1.0,
        origin: str = "local",
        fanout: Optional[List[Dict[str, Any]]] = None,
    ) -> bool:
        """Record the query if it breaches the threshold; returns
        whether it was logged."""
        threshold = self.threshold_seconds
        if threshold is None or seconds < threshold:
            return False
        entry = SlowQueryEntry(
            kind=kind,
            query_tid=query_tid,
            parameter=parameter,
            seconds=seconds,
            candidates=candidates,
            answers=answers,
            completeness=completeness,
            origin=origin,
            fanout=tuple(dict(f) for f in fanout) if fanout else None,
        )
        with self._lock:
            self._entries.append(entry)
        return True

    def entries(self) -> List[SlowQueryEntry]:
        """Oldest-first snapshot of the buffer."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def to_json(self) -> List[Dict[str, Any]]:
        return [asdict(entry) for entry in self.entries()]

    def restore_from_json(self, data: List[Dict[str, Any]]) -> None:
        """Refill the ring buffer from :meth:`to_json` output (oldest
        first).  Unknown keys — newer snapshots read by older code —
        are ignored; the capacity bound still applies."""
        known = {f.name for f in fields(SlowQueryEntry)}
        entries = []
        for raw in data:
            kwargs = {k: v for k, v in raw.items() if k in known}
            fanout = kwargs.get("fanout")
            if fanout is not None:
                kwargs["fanout"] = tuple(dict(f) for f in fanout)
            entries.append(SlowQueryEntry(**kwargs))
        with self._lock:
            self._entries.clear()
            self._entries.extend(entries)
