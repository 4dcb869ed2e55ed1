"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

One registry per engine absorbs every number the system already counts
— :class:`~repro.kvstore.metrics.IOMetrics`, the cache tiers, the
resilience events, breaker state, store shape — under **stable dotted
names** (``trass.io.rows_scanned``, ``trass.cache.block.hits``,
``trass.resilience.breaker.trips``, …) and exports them as JSON or
Prometheus text format.  Query latencies are observed into
fixed-bucket histograms at query time.

The registry is read-model only: refreshing it copies counter values
out of ``IOMetrics``, never writes back, so exporting metrics cannot
perturb the I/O accounting the paper's plots are built on.
"""

from __future__ import annotations

import bisect
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: latency buckets in seconds (sub-ms to 10 s; queries above the top
#: bucket land in +Inf)
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def set_to(self, value: float) -> None:
        """Overwrite with an externally accumulated total (used when
        absorbing ``IOMetrics``, which already keeps the running sum)."""
        self.value = value

    def to_json(self) -> Dict[str, Any]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def to_json(self) -> Dict[str, Any]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Histogram:
    """A fixed-bucket histogram (Prometheus ``le`` semantics).

    ``buckets`` are inclusive upper bounds; an implicit ``+Inf`` bucket
    catches the rest.  Counts are kept per bucket (non-cumulative) and
    cumulated at export time.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ):
        if not buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(sorted(float(b) for b in buckets))
        #: one slot per finite bucket plus the +Inf overflow slot
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def set_state(
        self, counts: Sequence[int], sum_: float, count: int
    ) -> None:
        """Overwrite with externally accumulated state (read-model
        absorption of a :class:`~repro.kvstore.metrics.FixedBucketCounts`
        that already keeps the running distribution — overwrite, not
        observe, so repeated refreshes cannot double-count)."""
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram {self.name} has {len(self.counts)} slots, "
                f"got {len(counts)}"
            )
        self.counts = [int(c) for c in counts]
        self.sum = float(sum_)
        self.count = int(count)

    def merge_from(self, other: "Histogram") -> None:
        """Element-wise accumulation of another histogram with the same
        bucket layout (cluster rollups sum worker histograms)."""
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name} buckets differ from {other.name}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count

    def cumulative_counts(self) -> List[int]:
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (0 < q <= 1) by linear
        interpolation inside the covering bucket — the
        ``histogram_quantile`` convention, computed locally.

        ``None`` on an empty histogram.  Observations in the ``+Inf``
        overflow bucket clamp to the top finite bound (the estimate is
        then a lower bound, exactly as in Prometheus).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= rank:
                if i >= len(self.buckets):
                    return self.buckets[-1]
                lo = self.buckets[i - 1] if i > 0 else 0.0
                hi = self.buckets[i]
                return lo + (hi - lo) * ((rank - seen) / c)
            seen += c
        return self.buckets[-1]

    def summary(self) -> Dict[str, Any]:
        """count / sum / mean plus p50, p95 and p99 estimates."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": (self.sum / self.count) if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Named metrics with dotted-path identifiers and two exporters."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, factory, kind: str):
        if not _NAME_RE.match(name):
            raise ValueError(
                f"metric name {name!r} must be dotted lowercase "
                f"[a-z0-9_] segments"
            )
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), "gauge")

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, buckets), "histogram"
        )

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return list(self._metrics)

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """``{dotted_name: {type, help, value...}}`` for every metric."""
        return {
            name: metric.to_json()
            for name, metric in sorted(self._metrics.items())
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        for name, metric in sorted(self._metrics.items()):
            prom = name.replace(".", "_")
            if metric.help:
                lines.append(f"# HELP {prom} {metric.help}")
            lines.append(f"# TYPE {prom} {metric.kind}")
            if metric.kind in ("counter", "gauge"):
                lines.append(f"{prom} {_format_value(metric.value)}")
            else:
                cumulative = metric.cumulative_counts()
                for bound, count in zip(metric.buckets, cumulative):
                    lines.append(
                        f'{prom}_bucket{{le="{_format_value(bound)}"}} {count}'
                    )
                lines.append(f'{prom}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{prom}_sum {_format_value(metric.sum)}")
                lines.append(f"{prom}_count {metric.count}")
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# ----------------------------------------------------------------------
# The stable name registry: IOMetrics fields -> dotted metric names.
# These names are a public contract (dashboards, the Prometheus
# scrape); extend, never rename.
# ----------------------------------------------------------------------
IO_METRIC_NAMES: Dict[str, str] = {
    "rows_scanned": "trass.io.rows_scanned",
    "rows_returned": "trass.io.rows_returned",
    "bytes_read": "trass.io.bytes_read",
    "range_seeks": "trass.io.range_seeks",
    "gets": "trass.io.gets",
    "puts": "trass.io.puts",
    "bloom_negatives": "trass.io.bloom_negatives",
    "sstables_opened": "trass.io.sstables_opened",
    "regions_visited": "trass.io.regions_visited",
    "filter_evaluations": "trass.io.filter_evaluations",
    "filter_rejections": "trass.io.filter_rejections",
    "faults_injected": "trass.resilience.faults_injected",
    "retries": "trass.resilience.retries",
    "ranges_skipped": "trass.resilience.ranges_skipped",
    "breaker_trips": "trass.resilience.breaker_trips",
    "block_cache_hits": "trass.cache.block.hits",
    "block_cache_misses": "trass.cache.block.misses",
    "record_cache_hits": "trass.cache.record.hits",
    "record_cache_misses": "trass.cache.record.misses",
    "plan_cache_hits": "trass.cache.plan.hits",
    "plan_cache_misses": "trass.cache.plan.misses",
    "segment_blocks_materialized": "trass.storage.segment.blocks_materialized",
    "segment_bytes_compressed": "trass.storage.segment.bytes_compressed_read",
    "segment_bytes_logical": "trass.storage.segment.bytes_logical_read",
}


def update_registry_from_engine(registry: MetricsRegistry, engine) -> None:
    """Refresh ``registry`` from an engine's current state.

    Absorbs the ``IOMetrics`` counter bundle, breaker state, store
    shape and the slow-query log under the stable dotted names.  Reads
    only — the engine's own counters are never touched.
    """
    io = engine.metrics.snapshot()
    for field, name in IO_METRIC_NAMES.items():
        registry.counter(name, f"IOMetrics.{field}").set_to(io[field])

    store = engine.store
    registry.gauge(
        "trass.store.trajectories", "stored trajectory count"
    ).set(store.trajectory_count)
    registry.gauge("trass.store.regions", "table region count").set(
        store.table.num_regions
    )
    registry.gauge(
        "trass.store.approximate_bytes", "approximate stored bytes"
    ).set(store.table.approximate_size)
    registry.gauge(
        "trass.store.distinct_index_values", "distinct XZ* index values"
    ).set(len(store.value_histogram))

    breaker = store.executor.breaker.snapshot()
    registry.gauge(
        "trass.resilience.breaker.open_regions",
        "regions currently rejected by an open circuit",
    ).set(breaker["open_regions"])
    registry.gauge(
        "trass.resilience.breaker.tracked_regions",
        "regions with failure history",
    ).set(breaker["tracked_regions"])
    registry.counter(
        "trass.resilience.breaker.trips", "circuit open transitions"
    ).set_to(breaker["trips"])

    registry.gauge(
        "trass.slowlog.entries", "entries in the slow-query ring buffer"
    ).set(len(engine.slow_query_log))

    from repro.obs.storage_stats import update_storage_registry

    update_storage_registry(registry, engine)


def update_registry_from_cluster(registry: MetricsRegistry, cluster) -> None:
    """Refresh ``registry`` from a serving cluster's counters.

    Mirrors :func:`update_registry_from_engine` for the distributed
    tier: scatter-gather traffic, failover/hedging activity, degraded
    queries and the admission front door, all under ``trass.serve.*``.
    Reads only.
    """
    stats = cluster.stats()
    registry.gauge(
        "trass.serve.partitions", "shard partitions in the cluster"
    ).set(stats["partitions"])
    registry.gauge(
        "trass.serve.replication", "replicas per partition"
    ).set(stats["replication"])
    counter_help = {
        "requests": "scatter-gather fan-outs issued",
        "threshold_queries": "threshold queries answered",
        "topk_queries": "top-k queries answered",
        "hedges": "hedged request copies sent",
        "hedge_wins": "queries won by the hedge copy",
        "failovers": "replica failures failed over",
        "degraded_queries": "queries answered with skipped ranges",
        "stale_replies": "late replies drained and dropped",
        "breaker_short_circuits": "replicas skipped by an open circuit",
        "worker_errors": "error replies received from workers",
    }
    for key, value in stats["counters"].items():
        registry.counter(
            f"trass.serve.{key}", counter_help.get(key, key)
        ).set_to(value)
    registry.counter(
        "trass.serve.worker_restarts", "dead workers replaced"
    ).set_to(stats["worker_restarts"])
    admission = stats["admission"]
    registry.gauge(
        "trass.serve.admission.in_flight", "requests currently admitted"
    ).set(admission["in_flight"])
    registry.counter(
        "trass.serve.admission.admitted", "requests admitted"
    ).set_to(admission["admitted"])
    registry.counter(
        "trass.serve.admission.rejected_quota",
        "requests shed by per-tenant quota",
    ).set_to(admission["rejected_quota"])
    registry.counter(
        "trass.serve.admission.rejected_queue_depth",
        "requests shed by queue-depth limit",
    ).set_to(admission["rejected_queue_depth"])

    # Cluster-wide aggregation (present when the cluster runs with
    # observability): coordinator SLO histograms and error budget,
    # per-worker IOMetrics deltas and their cluster rollup.  State is
    # overwritten, not observed, so repeated refreshes cannot
    # double-count.
    obs = stats.get("observability")
    if not obs:
        return
    for key, data in obs["slo"]["histograms"].items():
        hist = registry.histogram(
            f"trass.serve.slo.{key}_seconds",
            data.get("help", f"cluster SLO: {key} seconds"),
            buckets=data["buckets"],
        )
        hist.set_state(data["counts"], data["sum"], data["count"])
    budget = obs["slo"]["error_budget"]
    registry.counter(
        "trass.serve.slo.good_events",
        "queries that met the latency objective completely",
    ).set_to(budget["good_events"])
    registry.counter(
        "trass.serve.slo.bad_events",
        "queries that missed the objective or skipped ranges",
    ).set_to(budget["bad_events"])
    registry.gauge(
        "trass.serve.slo.error_budget_burn",
        "bad-event rate over the allowed rate (burn > 1 overspends)",
    ).set(budget["burn_rate"])
    for worker in obs["workers"]:
        prefix = (
            f"trass.serve.worker.{worker['partition']}.{worker['replica']}"
        )
        registry.counter(
            f"{prefix}.queries",
            "successful query replies from this worker slot",
        ).set_to(worker["queries"])
        for field, value in sorted(worker["io"].items()):
            registry.counter(
                f"{prefix}.{field}",
                f"worker slot IO delta total: {field}",
            ).set_to(value)
    for field, value in sorted(obs["cluster_io"].items()):
        registry.counter(
            f"trass.serve.cluster.io.{field}",
            f"cluster-wide IO rollup: {field}",
        ).set_to(value)


_PROM_LINE_RE = re.compile(
    r"^(#\s(HELP|TYPE)\s[A-Za-z_:][A-Za-z0-9_:]*.*"
    r"|[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})?\s[^\s]+)$"
)


def parse_prometheus(text: str) -> Dict[str, float]:
    """A strict mini-parser for the exporter's own output.

    Validates every line against the text exposition grammar and
    returns ``{sample_name_with_labels: value}``.  Used by tests and
    the CI perf-smoke job to assert the exporter emits scrapeable
    output.
    """
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if not _PROM_LINE_RE.match(line):
            raise ValueError(
                f"line {lineno} is not valid Prometheus text format: "
                f"{line!r}"
            )
        if line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples
