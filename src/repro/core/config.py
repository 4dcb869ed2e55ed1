"""Engine configuration.

Defaults follow the paper's evaluation setup (Section VI): the index
space covers the earth, the maximum resolution is 16, the DP tolerance
is 0.01, and the default measure is discrete Fréchet.  ``shards`` is
the salt-bucket count of Section IV-E; the paper finds 8 agreeable on
its five-node cluster (Figure 19).

Every knob is stated once: its default on :class:`TraSSConfig`, its
admissible values in :data:`KNOBS`, and its ``STORE.json`` form in
:meth:`TraSSConfig.to_json` / :meth:`TraSSConfig.from_json`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import KVStoreError, QueryError
from repro.index.bounds import SpaceBounds
from repro.index.xzstar import MAX_SUPPORTED_RESOLUTION
from repro.kvstore.table import MIN_REGION_ROWS
from repro.measures.base import Measure, available_measures, get_measure


@dataclass(frozen=True)
class Knob:
    """The admissible values of one :class:`TraSSConfig` field.

    ``kind`` is ``int`` (an integer, never a bool), ``float`` (an int
    or a float, never a bool, NaN or ±inf), ``bool``, ``str`` (one of
    ``choices``) or a class the value must be an instance of.  Numbers
    lie in ``lo..hi``, or strictly above ``lo`` when ``above`` is set;
    ``optional`` also admits ``None``.  A ``required`` knob must be in
    every ``STORE.json``: it shapes the stored rows or their plans and
    has been written since the first snapshot, so no default may stand
    in for it.
    """

    kind: type
    lo: float = -math.inf
    hi: float = math.inf
    above: bool = False
    optional: bool = False
    choices: Tuple[str, ...] = ()
    required: bool = False

    def describe(self) -> str:
        if self.kind is str:
            text = f"a known name (available: {list(self.choices)})"
        elif self.kind in (int, float):
            noun = "an integer" if self.kind is int else "a finite number"
            if self.above:
                text = f"{noun} > {self.lo:g}"
            elif self.hi == math.inf:
                text = f"{noun} >= {self.lo:g}"
            else:
                text = f"{noun} in {self.lo:g}..{self.hi:g}"
        else:
            text = f"a {self.kind.__name__}"
        return f"{text} or None" if self.optional else text

    def has_type(self, value: Any) -> bool:
        """Is ``value`` of this knob's type, its range aside?"""
        if value is None:
            return self.optional
        if self.kind in (int, float):
            numeric = (int, float) if self.kind is float else int
            return isinstance(value, numeric) and not isinstance(value, bool)
        return isinstance(value, self.kind)

    def check(self, name: str, value: Any) -> None:
        """Raise :class:`QueryError` unless ``value`` is admissible."""
        ok = self.has_type(value)
        if ok and value is not None:
            if self.kind is str:
                ok = value in self.choices
            elif self.kind in (int, float):
                ok = (
                    (self.lo < value if self.above else self.lo <= value)
                    and value <= self.hi
                    and value != math.inf
                )
        if not ok:
            raise QueryError(
                f"{name} must be {self.describe()}, got {value!r}"
            )


#: Every knob's bounds, checked field by field by ``TraSSConfig``.
KNOBS: Dict[str, Knob] = {
    "max_resolution": Knob(int, 1, MAX_SUPPORTED_RESOLUTION, required=True),
    "bounds": Knob(SpaceBounds, required=True),
    # one salt byte leads every row key
    "shards": Knob(int, 1, 256, required=True),
    "dp_tolerance": Knob(float, 0, required=True),
    "measure_name": Knob(str, choices=available_measures(), required=True),
    "max_planned_elements": Knob(int, 16, required=True),
    "range_merge_gap": Knob(int, 0, required=True),
    "max_region_rows": Knob(int, MIN_REGION_ROWS, required=True),
    "retry_max_attempts": Knob(int, 1),
    "scan_deadline_seconds": Knob(float, 0, above=True, optional=True),
    "degraded_mode": Knob(bool),
    "cache_mb": Knob(float, 0),
    "plan_cache_size": Knob(int, 0),
    "storage_telemetry": Knob(bool),
}


@dataclass
class TraSSConfig:
    """Tunable parameters of a TraSS instance."""

    max_resolution: int = 16
    bounds: SpaceBounds = field(default_factory=SpaceBounds.whole_earth)
    shards: int = 8
    dp_tolerance: float = 0.01
    measure_name: str = "frechet"
    #: planner safety valve: past this many visited elements the global
    #: pruner collapses the remaining frontier into subtree ranges
    max_planned_elements: int = 8192
    #: merge scan ranges separated by at most this many index values
    range_merge_gap: int = 0
    #: region auto-split threshold (rows)
    max_region_rows: int = 100_000
    # ------------------------------------------------------------------
    # Resilient execution (retry / degraded mode).  Backoff and the
    # circuit breaker keep the ``RetryPolicy`` / ``CircuitBreaker``
    # defaults.  The default attempt count masks any transient fault
    # the deterministic injector produces
    # (retry_max_attempts > FaultSchedule.max_consecutive_failures).
    # ------------------------------------------------------------------
    #: scan attempts per key range before giving up (1 = no retry)
    retry_max_attempts: int = 4
    #: per-query scan time budget in seconds (None = unlimited)
    scan_deadline_seconds: Optional[float] = None
    #: return partial results (with completeness accounting) instead of
    #: raising when a range cannot be scanned
    degraded_mode: bool = False
    # ------------------------------------------------------------------
    # Execution performance layer (multi-tier caches)
    # ------------------------------------------------------------------
    #: scan-block + decoded-record cache budget in MiB (0 = disabled);
    #: split evenly between the two tiers
    cache_mb: float = 0.0
    #: pruning-plan cache entries (0 = disabled); a plan depends on the
    #: query points, eps, the index geometry and the store's occupied
    #: index values, and is keyed on all four (the last by a version)
    plan_cache_size: int = 128
    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    #: collect per-region scan stats + key-space heat + workload log.
    #: Disabling it must not change any query answer or ``IOMetrics``
    #: total — the telemetry layer never writes to either (the parity
    #: test pins that down).
    storage_telemetry: bool = True

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            KNOBS[f.name].check(f.name, getattr(self, f.name))

    def make_measure(self) -> Measure:
        """Instantiate the configured similarity measure."""
        return get_measure(self.measure_name)

    # ------------------------------------------------------------------
    # STORE.json form
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """Every field as a JSON value (``bounds`` as its four numbers)."""
        out = {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }
        out["bounds"] = list(dataclasses.astuple(self.bounds))
        return out

    @classmethod
    def from_json(cls, raw: Any, where: str) -> "TraSSConfig":
        """Rebuild a config written by :meth:`to_json`.

        Keys that name no field (knobs since removed) are ignored, and
        a missing key that is not required takes its default, so older
        snapshots load.  A missing required key or a value of the wrong
        JSON shape is a :class:`KVStoreError` naming ``where`` and the
        key; a well-shaped value out of bounds is the constructor's
        :class:`QueryError`.  A store built with the removed
        ``"min_area"`` covering boxes (any ``box_mode`` but ``"chord"``)
        is a :class:`KVStoreError` here, at load: its segment blocks
        keep those boxes in a box mode the reader no longer decodes.
        """
        if not isinstance(raw, dict):
            raise KVStoreError(f"{where}: 'config' is not a JSON object")
        if raw.get("box_mode", "chord") != "chord":
            raise KVStoreError(
                f"{where}: 'config.box_mode' is {raw['box_mode']!r}; only "
                f"'chord' covering boxes are supported (the 'min_area' "
                f"construction was removed), rebuild the store"
            )
        values = {}
        for f in dataclasses.fields(cls):
            knob = KNOBS[f.name]
            if f.name not in raw:
                if knob.required:
                    raise KVStoreError(f"{where} lacks 'config.{f.name}'")
                continue
            value = raw[f.name]
            if knob.kind is SpaceBounds:
                shaped = (
                    isinstance(value, list)
                    and len(value) == 4
                    and all(
                        isinstance(v, (int, float))
                        and not isinstance(v, bool)
                        and -math.inf < v < math.inf
                        for v in value
                    )
                )
                expected = "a list of four finite numbers"
            else:
                shaped = knob.has_type(value)
                expected = knob.describe()
            if not shaped:
                raise KVStoreError(
                    f"{where}: 'config.{f.name}' must be {expected}, "
                    f"got {value!r}"
                )
            values[f.name] = (
                SpaceBounds(*value) if knob.kind is SpaceBounds else value
            )
        return cls(**values)
