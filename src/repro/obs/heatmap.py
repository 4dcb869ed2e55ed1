"""Key-space heatmap: where scan traffic lands in the salted row-key
space.

The heatmap buckets every scanned row into a fixed grid of row-key
ranges computed once from the store's shape (``shards`` salt buckets ×
:data:`BUCKETS_PER_SHARD` ranges over the XZ* value space).  Heat
is **keyed by the key space itself, never by regions or SSTables**:
region splits, flushes and compactions reshuffle the physical layout
but cannot double-count or orphan a single unit of heat, the same
generation-safety argument the PR-2 caches make with their
generation-numbered keys.  Region attribution happens at *read* time,
by mapping the fixed buckets onto whatever region boundaries currently
exist.

Heat decays exponentially per recorded query (half-life
:data:`HALF_LIFE_QUERIES`), so the hot ranges the advisor acts on reflect
the recent workload, not all history; the undecayed per-bucket row
counts are kept alongside for lifetime evidence.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: the ASCII intensity ramp used by ``repro heatmap``
HEAT_RAMP = " .:-=+*#%@"

#: heatmap resolution: key-range buckets per salt shard
BUCKETS_PER_SHARD = 16

#: heat halves every this many recorded queries
HALF_LIFE_QUERIES = 512.0

#: fold the decay weight back into the buckets past this value (every
#: 64 half-lives), far below where the scaled heat could overflow
_MAX_WEIGHT = 2.0**64


def _key_label(key: Optional[bytes]) -> str:
    if key is None:
        return "-inf"
    return key[:12].hex()


def _stop_label(key: Optional[bytes]) -> str:
    """End-of-range labels: an open stop is plus infinity."""
    if key is None:
        return "+inf"
    return key[:12].hex()


def key_space_boundaries(
    store, buckets_per_shard: int = BUCKETS_PER_SHARD
) -> List[bytes]:
    """Fixed interior bucket boundaries over the salted row-key space.

    One block of ``buckets_per_shard`` equal value ranges per salt
    byte, expressed as row keys under the store's key encoding.  The
    list is sorted and deduplicated, so it works for both the integer
    encoding (where value order is byte order) and the TraSS-S string
    encoding (where root-block prefixes sort out of value order).
    """
    total = store.index.total_index_spaces
    boundaries = set()
    for shard in range(store.config.shards):
        for b in range(buckets_per_shard):
            value = min(total - 1, b * total // buckets_per_shard)
            boundaries.add(store.boundary_key(shard, value))
    return sorted(boundaries)


class KeySpaceHeatmap:
    """Exponentially-decayed scan heat over fixed row-key buckets.

    Decay is O(1) per query: buckets hold heat scaled by the running
    weight ``_weight`` a row adds now, and a tick grows that weight by
    ``1 / decay`` instead of shrinking every bucket.  Real heat is the
    scaled value over the weight; readers (``heat`` and everything
    built on it) only ever see real values.  The weight is recomputed
    as one power from ``_epoch`` (no rounding error accumulates tick by
    tick) and folded back into the buckets before it grows large.
    """

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
        #: undecayed lifetime scanned-row counts per bucket
        self.rows: List[int] = [0] * n
        #: recorded queries (decay ticks) so far
        self.tick = 0
        self._set_heat([0.0] * n)

    def _set_heat(self, heat: List[float]) -> None:
        """Adopt real per-bucket heat as of the current tick."""
        self._scaled = heat
        self._weight = 1.0
        self._epoch = self.tick

    @property
    def heat(self) -> List[float]:
        """Decayed heat per bucket (a fresh list of real values)."""
        weight = self._weight
        return [s / weight for s in self._scaled]

    # ------------------------------------------------------------------
    def record(self, key: bytes, weight: float = 1.0) -> None:
        """Attribute one scanned row to its key-space bucket."""
        i = bisect.bisect_right(self.boundaries, key)
        self._scaled[i] += weight * self._weight
        self.rows[i] += 1

    def add(self, i: int, rows: int) -> None:
        """Attribute ``rows`` scanned rows to bucket ``i`` at once."""
        self._scaled[i] += rows * self._weight
        self.rows[i] += rows

    def range_bucket(
        self, start: Optional[bytes], stop: Optional[bytes]
    ) -> Optional[int]:
        """The one bucket every key of ``[start, stop)`` falls in, or
        ``None`` when the range crosses a bucket boundary."""
        boundaries = self.boundaries
        i = 0 if start is None else bisect.bisect_right(boundaries, start)
        if i == len(boundaries):
            return i
        if stop is not None and stop <= boundaries[i]:
            return i
        return None

    def count_rows(self, rows: Iterator[Tuple[bytes, bytes]]):
        """Yield key-sorted ``rows`` unchanged, attributing each run of
        keys to its bucket through a monotone cursor (one bisect per
        bucket entered, not per row).  Closing the generator adds the
        run in progress."""
        boundaries = self.boundaries
        last = len(boundaries)
        bucket = count = 0
        stop_key: Optional[bytes] = b""
        try:
            for row in rows:
                if stop_key is not None and row[0] >= stop_key:
                    if count:
                        self.add(bucket, count)
                        count = 0
                    bucket = bisect.bisect_right(boundaries, row[0])
                    stop_key = None if bucket == last else boundaries[bucket]
                count += 1
                yield row
        finally:
            if count:
                self.add(bucket, count)

    def advance_tick(self) -> None:
        """Decay all heat by one query's worth of half-life."""
        self.tick += 1
        if self._decay >= 1.0:
            return
        try:
            weight = self._decay ** (self._epoch - self.tick)
        except (OverflowError, ZeroDivisionError):  # a vanishing half-life
            weight = math.inf
        if weight > _MAX_WEIGHT:
            self._set_heat([s / weight for s in self._scaled])
        else:
            self._weight = weight

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

    def region_sums(
        self, table, values: Sequence[Any], start: Any = 0
    ) -> List[Tuple[Any, Any]]:
        """A per-bucket vector (heat, row counts, a delta of either)
        summed onto the table's *current* regions, from ``start``.

        Each bucket is attributed to exactly one region — the one that
        owns its start key — so the mapping conserves the total exactly
        across any sequence of splits and compactions: no bucket is
        counted twice, none is orphaned on a dead region.
        """
        sums = [start] * table.num_regions
        for i, value in enumerate(values):
            key = self.bucket_start(i)
            sums[0 if key is None else table._region_index_for(key)] += value
        return list(zip(table.regions, sums))

    def region_heat(self, table) -> List[Tuple[Any, float]]:
        """Decayed heat mapped onto the table's *current* regions
        (``sum == total_heat``)."""
        return self.region_sums(table, self.heat, 0.0)

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
            "heat": self.heat,
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
        n = len(heatmap.rows)
        heatmap.tick = int(data.get("tick", 0))
        heatmap._set_heat(heat if len(heat) == n else [0.0] * n)
        if len(rows) == n:
            heatmap.rows = rows
        return heatmap

    def restore_from(self, other: "KeySpaceHeatmap") -> bool:
        """Adopt a persisted map's state if the grids are compatible.

        Returns False (and keeps the fresh empty state) when the
        persisted boundaries do not match — e.g. the store was rebuilt
        with a different shard count or bucket resolution.
        """
        if other.boundaries != self.boundaries:
            return False
        self.rows = list(other.rows)
        self.tick = other.tick
        self._set_heat(other.heat)
        return True


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_heatmap(heatmap: KeySpaceHeatmap, table, shards: int) -> str:
    """ASCII heatmap: one row per salt bucket, one cell per key bucket,
    plus the hot-bucket and per-region heat tables the advisor reads."""
    heat = heatmap.heat
    lines: List[str] = []
    lines.append(
        f"key-space heatmap: {len(heat)} buckets, "
        f"{heatmap.total_rows} rows recorded, decayed heat "
        f"{heatmap.total_heat:.1f} (tick {heatmap.tick}, "
        f"half-life {heatmap.half_life:g} queries)"
    )
    per_shard: Dict[int, List[float]] = {s: [] for s in range(shards)}
    for i, h in enumerate(heat):
        shard = heatmap.shard_of_bucket(i)
        per_shard.setdefault(shard, []).append(h)
    peak = max(heat) if heat else 0.0
    for shard in sorted(per_shard):
        cells = per_shard[shard]
        if peak > 0:
            row = "".join(
                HEAT_RAMP[
                    min(len(HEAT_RAMP) - 1, int(h / peak * (len(HEAT_RAMP) - 1)))
                ]
                for h in cells
            )
        else:
            row = " " * len(cells)
        lines.append(f"  shard {shard:3d} |{row}|")
    hot = heatmap.hot_buckets()
    if hot:
        lines.append("hot buckets:")
        total = heatmap.total_heat
        for i, h in hot:
            lines.append(
                f"  [{_key_label(heatmap.bucket_start(i))} .. "
                f"{_stop_label(heatmap.bucket_stop(i))}) "
                f"heat {h:.1f} ({h / total:.1%})"
            )
    region_heats = heatmap.region_heat(table)
    total = heatmap.total_heat
    if total > 0:
        lines.append("per-region heat (current boundaries):")
        for region, h in region_heats:
            lines.append(
                f"  region [{_key_label(region.start_key)} .. "
                f"{_stop_label(region.end_key)}) rows={region.row_count} "
                f"heat {h:.1f} ({h / total:.1%})"
            )
    return "\n".join(lines)


def heatmap_json(heatmap: KeySpaceHeatmap, table) -> Dict[str, Any]:
    """The ``repro heatmap --json`` payload."""
    total = heatmap.total_heat
    return {
        "tick": heatmap.tick,
        "half_life": heatmap.half_life,
        "total_heat": total,
        "total_rows": heatmap.total_rows,
        "buckets": [
            {
                "start": _key_label(heatmap.bucket_start(i)),
                "stop": _stop_label(heatmap.bucket_stop(i)),
                "shard": heatmap.shard_of_bucket(i),
                "heat": h,
                "rows": heatmap.rows[i],
            }
            for i, h in enumerate(heatmap.heat)
        ],
        "shard_heat": {
            str(s): h for s, h in sorted(heatmap.shard_heat().items())
        },
        "regions": [
            {
                "start": _key_label(region.start_key),
                "stop": _stop_label(region.end_key),
                "rows": region.row_count,
                "heat": h,
                "share": (h / total) if total > 0 else 0.0,
            }
            for region, h in heatmap.region_heat(table)
        ],
    }
