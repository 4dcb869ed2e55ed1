"""Engine configuration.

Defaults follow the paper's evaluation setup (Section VI): the index
space covers the earth, the maximum resolution is 16, the DP tolerance
is 0.01, and the default measure is discrete Fréchet.  ``shards`` is
the salt-bucket count of Section IV-E; the paper finds 8 agreeable on
its five-node cluster (Figure 19).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import QueryError
from repro.index.bounds import SpaceBounds
from repro.measures.base import Measure, get_measure


@dataclass
class TraSSConfig:
    """Tunable parameters of a TraSS instance."""

    max_resolution: int = 16
    bounds: SpaceBounds = field(default_factory=SpaceBounds.whole_earth)
    shards: int = 8
    dp_tolerance: float = 0.01
    measure_name: str = "frechet"
    #: DP-feature covering-box construction: "chord" (the paper's) or
    #: "min_area" (rotating-calipers rectangles; tighter, costlier)
    box_mode: str = "chord"
    #: planner safety valve: past this many visited elements the global
    #: pruner collapses the remaining frontier into subtree ranges
    max_planned_elements: int = 8192
    #: merge scan ranges separated by at most this many index values
    range_merge_gap: int = 0
    #: region auto-split threshold (rows)
    max_region_rows: int = 100_000
    # ------------------------------------------------------------------
    # Resilient execution (retry / backoff / degraded mode); defaults
    # mask any transient fault the deterministic injector produces
    # (retry_max_attempts > FaultSchedule.max_consecutive_failures).
    # ------------------------------------------------------------------
    #: scan attempts per key range before giving up (1 = no retry)
    retry_max_attempts: int = 4
    #: first backoff delay in seconds (doubles each retry)
    retry_backoff_base: float = 0.01
    #: backoff ceiling in seconds
    retry_backoff_max: float = 1.0
    #: proportional jitter added to each delay (0 = none, 0.25 = +0-25%)
    retry_jitter: float = 0.25
    #: per-query scan time budget in seconds (None = unlimited)
    scan_deadline_seconds: Optional[float] = None
    #: return partial results (with completeness accounting) instead of
    #: raising when a range cannot be scanned
    degraded_mode: bool = False
    #: consecutive per-region failures that open its circuit breaker
    breaker_failure_threshold: int = 5
    #: seconds an open breaker rejects a region before a retry probe
    breaker_cooldown_seconds: float = 30.0
    # ------------------------------------------------------------------
    # Execution performance layer (multi-tier caches)
    # ------------------------------------------------------------------
    #: scan-block + decoded-record cache budget in MiB (0 = disabled);
    #: split evenly between the two tiers
    cache_mb: float = 0.0
    #: pruning-plan cache entries (0 = disabled); plans depend only on
    #: (query points, eps, index geometry), so caching is always sound
    plan_cache_size: int = 128
    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    #: queries at/above this wall time (seconds) enter the slow-query
    #: log; ``None`` disables slow-query logging
    slow_query_threshold_seconds: Optional[float] = None
    #: capacity of the slow-query ring buffer
    slow_query_log_size: int = 128
    # ------------------------------------------------------------------
    # Storage observability (per-region telemetry, key-space heatmap,
    # workload recorder).  Disabling it must not change any query answer
    # or ``IOMetrics`` total — the telemetry layer never writes to
    # either (the parity test pins that down).
    # ------------------------------------------------------------------
    #: collect per-region scan stats + key-space heat + workload log
    storage_telemetry: bool = True
    #: heatmap resolution: key-range buckets per salt shard
    heatmap_buckets_per_shard: int = 16
    #: heat half-life in recorded queries (<= 0 disables decay)
    heat_decay_queries: float = 512.0
    #: workload recorder ring-buffer capacity (entries)
    workload_log_size: int = 1024

    def __post_init__(self) -> None:
        if not isinstance(self.bounds, SpaceBounds):
            raise QueryError(
                f"bounds must be a SpaceBounds, got {type(self.bounds).__name__}"
            )
        if self.shards < 1 or self.shards > 256:
            raise QueryError(f"shards must be in 1..256, got {self.shards}")
        if self.dp_tolerance < 0:
            raise QueryError(
                f"dp_tolerance must be non-negative, got {self.dp_tolerance}"
            )
        if self.box_mode not in ("chord", "min_area"):
            raise QueryError(
                f"box_mode must be 'chord' or 'min_area', got {self.box_mode!r}"
            )
        if self.range_merge_gap < 0:
            raise QueryError(
                f"range_merge_gap must be non-negative, got "
                f"{self.range_merge_gap}"
            )
        if self.max_planned_elements < 16:
            raise QueryError(
                "max_planned_elements must be >= 16, got "
                f"{self.max_planned_elements}"
            )
        if self.retry_max_attempts < 1:
            raise QueryError(
                f"retry_max_attempts must be >= 1, got "
                f"{self.retry_max_attempts}"
            )
        if self.retry_backoff_base < 0 or self.retry_backoff_max < 0:
            raise QueryError("retry backoff delays must be non-negative")
        if self.retry_jitter < 0:
            raise QueryError(
                f"retry_jitter must be non-negative, got {self.retry_jitter}"
            )
        if (
            self.scan_deadline_seconds is not None
            and self.scan_deadline_seconds <= 0
        ):
            raise QueryError(
                "scan_deadline_seconds must be positive or None, got "
                f"{self.scan_deadline_seconds}"
            )
        if self.breaker_failure_threshold < 1:
            raise QueryError(
                "breaker_failure_threshold must be >= 1, got "
                f"{self.breaker_failure_threshold}"
            )
        if self.breaker_cooldown_seconds < 0:
            raise QueryError(
                "breaker_cooldown_seconds must be non-negative, got "
                f"{self.breaker_cooldown_seconds}"
            )
        if self.cache_mb < 0:
            raise QueryError(
                f"cache_mb must be non-negative, got {self.cache_mb}"
            )
        if self.plan_cache_size < 0:
            raise QueryError(
                f"plan_cache_size must be non-negative, got "
                f"{self.plan_cache_size}"
            )
        if (
            self.slow_query_threshold_seconds is not None
            and self.slow_query_threshold_seconds < 0
        ):
            raise QueryError(
                "slow_query_threshold_seconds must be non-negative or "
                f"None, got {self.slow_query_threshold_seconds}"
            )
        if self.slow_query_log_size < 1:
            raise QueryError(
                f"slow_query_log_size must be >= 1, got "
                f"{self.slow_query_log_size}"
            )
        if self.heatmap_buckets_per_shard < 1:
            raise QueryError(
                f"heatmap_buckets_per_shard must be >= 1, got "
                f"{self.heatmap_buckets_per_shard}"
            )
        if self.workload_log_size < 1:
            raise QueryError(
                f"workload_log_size must be >= 1, got "
                f"{self.workload_log_size}"
            )

    def make_measure(self) -> Measure:
        """Instantiate the configured similarity measure."""
        return get_measure(self.measure_name)
