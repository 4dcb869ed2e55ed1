"""The tuning advisor behind ``repro doctor``.

Reads the heatmap, the storage read-model and the metrics registry —
never the hot path — and emits ranked, evidence-cited recommendations.
Every heuristic names the exact metric values that triggered it, so a
recommendation is an argument, not an oracle:

* **hot-region-split** — one region absorbs an outsized share of the
  decayed scan heat (``share >= 0.30`` and at least twice its fair
  share ``1/num_regions``) and has enough rows to split.
* **salt-skew** — the hottest salt shard carries >= 2x the mean shard
  heat: the tid hash is not spreading this workload, so shard scans
  are imbalanced (the Figure 19 failure mode).
* **cache tuning** — heavy scanning with caching disabled, a low block
  cache hit rate under a real lookup volume (raise ``cache_mb``), or a
  near-perfect hit rate suggesting budget can be reclaimed.
* **resolution-mismatch** — the stored resolution histogram piles up
  far below ``max_resolution`` (lower MaxR: shallower tree, cheaper
  planning) or saturates at it (raise MaxR: elements too coarse).
* **compaction-backlog** — some region's run stack is at or past the
  compaction trigger, so reads pay extra seek depth.
* **read-amplification** — the engine scans far more rows than it
  returns (> 8x), i.e. pruning is not containing the scans.

Thresholds live in module constants so tests (and DESIGN.md §9) can
cite them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.heatmap import _key_label

# ---------------------------------------------------------------------
# Heuristic thresholds (documented in DESIGN.md §9; cite, don't inline)
# ---------------------------------------------------------------------
#: a region is hot when it holds this share of total decayed heat...
HOT_REGION_SHARE = 0.30
#: ...and at least this multiple of its fair share (1/num_regions)
HOT_REGION_FAIRNESS = 2.0
#: hottest-shard heat over mean shard heat that flags salt skew
SALT_SKEW_RATIO = 2.0
#: block-cache hit rate below this (with volume) suggests more cache
CACHE_LOW_HIT_RATE = 0.4
#: hit rate above this suggests the budget could be trimmed
CACHE_HIGH_HIT_RATE = 0.95
#: cache lookups needed before hit-rate evidence counts
CACHE_MIN_LOOKUPS = 100
#: rows scanned that make "caching disabled" worth flagging
CACHE_MIN_ROWS_SCANNED = 1000
#: share of rows at/below max_resolution // 2 that flags MaxR too high
RESOLUTION_LOW_MASS = 0.5
#: share of rows exactly at max_resolution that flags MaxR too low
RESOLUTION_SATURATION = 0.6
#: rows scanned per row returned that flags weak pruning
READ_AMP_THRESHOLD = 8.0

# --- cluster doctor thresholds (``ServingCluster.doctor``) -----------
#: share of a partition's replies served by backup replicas that flags
#: an unhealthy primary (with replication > 1)
REPLICA_BACKUP_SHARE = 0.5
#: per-partition replies needed before replica-balance evidence counts
REPLICA_MIN_SAMPLES = 5
#: breaker trips at/above which the breaker is "flapping"
BREAKER_FLAP_TRIPS = 3
#: hedges needed before hedge-efficacy evidence counts
HEDGE_MIN_SAMPLES = 5
#: hedge win rate below this means hedges are mostly wasted sends
HEDGE_WASTE_WIN_RATE = 0.2
#: hedge win rate above this means primaries straggle chronically
HEDGE_CHRONIC_WIN_RATE = 0.7
#: admission rejections over offered load that flags shedding
SHED_RATE_THRESHOLD = 0.05
#: admission decisions needed before shed-rate evidence counts
SHED_MIN_SAMPLES = 20
#: slowest-partition mean service time over cluster mean that flags skew
SLOW_PARTITION_RATIO = 2.0
#: per-partition replies needed before service-skew evidence counts
SLOW_PARTITION_MIN_SAMPLES = 5

_SEVERITY_ORDER = {"critical": 0, "warning": 1, "info": 2}


@dataclass
class Recommendation:
    """One advisor finding, with the numbers that triggered it."""

    kind: str
    severity: str  # "critical" | "warning" | "info"
    title: str
    action: str
    evidence: Dict[str, Any] = field(default_factory=dict)
    rationale: str = ""

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "title": self.title,
            "action": self.action,
            "evidence": self.evidence,
            "rationale": self.rationale,
        }

    def render(self) -> str:
        lines = [f"[{self.severity}] {self.kind}: {self.title}"]
        lines.append(f"  action: {self.action}")
        if self.rationale:
            lines.append(f"  why: {self.rationale}")
        for key, value in sorted(self.evidence.items()):
            lines.append(f"  evidence: {key} = {value}")
        return "\n".join(lines)


def diagnose(engine) -> List[Recommendation]:
    """Run every heuristic against the engine's current read models,
    ranked most severe first (stable within a severity)."""
    from repro.obs.storage_stats import collect_storage_stats

    recs: List[Recommendation] = []
    storage = collect_storage_stats(engine)
    telemetry = engine.store.table.storage_telemetry
    heatmap = telemetry.heatmap if telemetry is not None else None

    recs.extend(_check_hot_regions(engine, heatmap))
    recs.extend(_check_salt_skew(engine, heatmap))
    recs.extend(_check_cache(engine))
    recs.extend(_check_resolution(engine))
    recs.extend(_check_compaction_backlog(engine, storage))
    recs.extend(_check_read_amplification(engine, storage))
    recs.sort(key=lambda r: _SEVERITY_ORDER.get(r.severity, 9))
    return recs


# ---------------------------------------------------------------------
def _check_hot_regions(engine, heatmap) -> List[Recommendation]:
    if heatmap is None or heatmap.total_heat <= 0:
        return []
    table = engine.store.table
    total = heatmap.total_heat
    fair_share = 1.0 / max(1, table.num_regions)
    out: List[Recommendation] = []
    for region, heat in heatmap.region_heat(table):
        share = heat / total
        if share < HOT_REGION_SHARE or share < HOT_REGION_FAIRNESS * fair_share:
            continue
        if region.row_count < 2:
            continue  # nothing to split around
        span = (
            f"[{_key_label(region.start_key)} .. "
            f"{_key_label(region.end_key)})"
        )
        out.append(
            Recommendation(
                kind="hot-region-split",
                severity="critical" if share >= 0.5 else "warning",
                title=(
                    f"region {span} absorbs {share:.0%} of recent scan heat"
                ),
                action=(
                    f"split region {span} (lower max_region_rows below "
                    f"{region.row_count}, or pre-split at the hot bucket "
                    f"boundary) to spread its {region.row_count} rows"
                ),
                evidence={
                    "region": span,
                    "heat_share": round(share, 4),
                    "heat": round(heat, 2),
                    "total_heat": round(total, 2),
                    "fair_share": round(fair_share, 4),
                    "region_rows": region.row_count,
                    "threshold_share": HOT_REGION_SHARE,
                    "threshold_fairness": HOT_REGION_FAIRNESS,
                },
                rationale=(
                    f"share {share:.2f} >= {HOT_REGION_SHARE} and "
                    f">= {HOT_REGION_FAIRNESS}x fair share "
                    f"{fair_share:.3f}; one region serialises most scans"
                ),
            )
        )
    return out


def _check_salt_skew(engine, heatmap) -> List[Recommendation]:
    if heatmap is None:
        return []
    shards = engine.config.shards
    if shards < 2:
        return []
    shard_heat = heatmap.shard_heat()
    values = [shard_heat.get(s, 0.0) for s in range(shards)]
    total = sum(values)
    if total <= 0:
        return []
    mean = total / shards
    peak = max(values)
    hottest = values.index(peak)
    ratio = peak / mean if mean > 0 else 0.0
    if ratio < SALT_SKEW_RATIO:
        return []
    return [
        Recommendation(
            kind="salt-skew",
            severity="warning",
            title=(
                f"shard {hottest} carries {ratio:.1f}x the mean shard heat"
            ),
            action=(
                "rebalance salt buckets: raise `shards` (currently "
                f"{shards}) or revisit the tid hash — scan fan-out is "
                "bounded by the hottest shard"
            ),
            evidence={
                "hottest_shard": hottest,
                "hottest_heat": round(peak, 2),
                "mean_heat": round(mean, 2),
                "skew_ratio": round(ratio, 2),
                "shards": shards,
                "threshold_ratio": SALT_SKEW_RATIO,
                "shard_heat": {
                    str(s): round(h, 2) for s, h in enumerate(values)
                },
            },
            rationale=(
                f"max/mean shard heat {ratio:.2f} >= {SALT_SKEW_RATIO}; "
                "the salt is not spreading this workload evenly"
            ),
        )
    ]


def _check_cache(engine) -> List[Recommendation]:
    io = engine.metrics.snapshot()
    out: List[Recommendation] = []
    cache_mb = engine.config.cache_mb
    rows_scanned = io["rows_scanned"]
    if cache_mb == 0:
        if rows_scanned >= CACHE_MIN_ROWS_SCANNED:
            out.append(
                Recommendation(
                    kind="cache-tuning",
                    severity="warning",
                    title="caching disabled under a scan-heavy workload",
                    action=(
                        "set cache_mb > 0 (e.g. `--cache-mb 16`) to give "
                        "repeated scans a block + record cache"
                    ),
                    evidence={
                        "cache_mb": cache_mb,
                        "rows_scanned": rows_scanned,
                        "threshold_rows": CACHE_MIN_ROWS_SCANNED,
                    },
                    rationale=(
                        f"{rows_scanned} rows scanned with cache_mb=0; every "
                        "repeated range pays full LSM merge cost"
                    ),
                )
            )
        return out
    lookups = io["block_cache_hits"] + io["block_cache_misses"]
    if lookups < CACHE_MIN_LOOKUPS:
        return out
    hit_rate = io["block_cache_hits"] / lookups
    if hit_rate < CACHE_LOW_HIT_RATE:
        out.append(
            Recommendation(
                kind="cache-tuning",
                severity="warning",
                title=(
                    f"block cache hit rate {hit_rate:.0%} over "
                    f"{lookups} lookups"
                ),
                action=(
                    f"raise cache_mb above {cache_mb:g} — the working set "
                    "does not fit the current budget"
                ),
                evidence={
                    "cache_mb": cache_mb,
                    "block_cache_hits": io["block_cache_hits"],
                    "block_cache_misses": io["block_cache_misses"],
                    "hit_rate": round(hit_rate, 4),
                    "threshold_hit_rate": CACHE_LOW_HIT_RATE,
                },
                rationale=(
                    f"hit rate {hit_rate:.2f} < {CACHE_LOW_HIT_RATE} with "
                    f"{lookups} lookups (>= {CACHE_MIN_LOOKUPS})"
                ),
            )
        )
    elif hit_rate > CACHE_HIGH_HIT_RATE and cache_mb >= 8:
        out.append(
            Recommendation(
                kind="cache-tuning",
                severity="info",
                title=(
                    f"block cache hit rate {hit_rate:.0%} — budget may be "
                    "oversized"
                ),
                action=(
                    f"try lowering cache_mb below {cache_mb:g}; the hit "
                    "rate suggests headroom"
                ),
                evidence={
                    "cache_mb": cache_mb,
                    "hit_rate": round(hit_rate, 4),
                    "threshold_hit_rate": CACHE_HIGH_HIT_RATE,
                },
                rationale=(
                    f"hit rate {hit_rate:.2f} > {CACHE_HIGH_HIT_RATE} with "
                    f"cache_mb={cache_mb:g}"
                ),
            )
        )
    return out


def _check_resolution(engine) -> List[Recommendation]:
    store = engine.store
    if store.trajectory_count == 0:
        return []
    histogram = store.resolution_histogram()
    total = sum(histogram.values())
    if total == 0:
        return []
    max_res = engine.config.max_resolution
    low_cut = max_res // 2
    low_mass = sum(c for lvl, c in histogram.items() if lvl <= low_cut) / total
    at_max = histogram.get(max_res, 0) / total
    out: List[Recommendation] = []
    if low_mass >= RESOLUTION_LOW_MASS and max_res > 2:
        out.append(
            Recommendation(
                kind="resolution-mismatch",
                severity="info",
                title=(
                    f"{low_mass:.0%} of trajectories index at resolution "
                    f"<= {low_cut} (MaxR = {max_res})"
                ),
                action=(
                    f"lower max_resolution toward {max(2, low_cut + 2)}: the "
                    "tree is far deeper than the data uses, inflating "
                    "planning work"
                ),
                evidence={
                    "max_resolution": max_res,
                    "low_cut": low_cut,
                    "low_mass": round(low_mass, 4),
                    "threshold_low_mass": RESOLUTION_LOW_MASS,
                    "resolution_histogram": {
                        str(k): v for k, v in sorted(histogram.items())
                    },
                },
                rationale=(
                    f"mass at <= MaxR/2 is {low_mass:.2f} >= "
                    f"{RESOLUTION_LOW_MASS}"
                ),
            )
        )
    if at_max >= RESOLUTION_SATURATION:
        out.append(
            Recommendation(
                kind="resolution-mismatch",
                severity="warning",
                title=(
                    f"{at_max:.0%} of trajectories saturate at resolution "
                    f"{max_res}"
                ),
                action=(
                    f"raise max_resolution above {max_res}: elements are too "
                    "coarse, so index values collide and pruning weakens"
                ),
                evidence={
                    "max_resolution": max_res,
                    "saturated_mass": round(at_max, 4),
                    "threshold_saturation": RESOLUTION_SATURATION,
                    "resolution_histogram": {
                        str(k): v for k, v in sorted(histogram.items())
                    },
                },
                rationale=(
                    f"mass at MaxR is {at_max:.2f} >= "
                    f"{RESOLUTION_SATURATION}"
                ),
            )
        )
    return out


def _check_compaction_backlog(engine, storage) -> List[Recommendation]:
    max_runs = storage["sstables"]["max_runs"]
    trigger = engine.store.table.regions[0].store.compaction_trigger
    if max_runs < trigger - 1:
        return []
    return [
        Recommendation(
            kind="compaction-backlog",
            severity="warning",
            title=(
                f"a region has {max_runs} SSTable runs (trigger {trigger})"
            ),
            action=(
                "flush + compact (or lower compaction_trigger / flush "
                "threshold): point reads now consult up to "
                f"{max_runs + 1} structures"
            ),
            evidence={
                "max_runs_per_region": max_runs,
                "runs_total": storage["sstables"]["runs_total"],
                "compaction_trigger": trigger,
                "seek_depth_mean": round(
                    storage["seek_depth"]["mean"], 2
                ),
            },
            rationale=(
                f"max runs {max_runs} >= trigger-1 ({trigger - 1}); read "
                "amplification grows with every un-merged run"
            ),
        )
    ]


def _check_read_amplification(engine, storage) -> List[Recommendation]:
    io = engine.metrics.snapshot()
    if io["rows_scanned"] < CACHE_MIN_ROWS_SCANNED:
        return []
    amp = storage["read_amplification"]
    if amp <= READ_AMP_THRESHOLD:
        return []
    return [
        Recommendation(
            kind="read-amplification",
            severity="warning",
            title=(
                f"queries scan {amp:.1f} rows per row returned"
            ),
            action=(
                "tighten pruning: check eps / resolution band, consider "
                "range_merge_gap=0 and verify the resolution histogram — "
                "most scanned rows are discarded by the filter"
            ),
            evidence={
                "read_amplification": round(amp, 2),
                "rows_scanned": io["rows_scanned"],
                "rows_returned": io["rows_returned"],
                "filter_rejections": io["filter_rejections"],
                "threshold": READ_AMP_THRESHOLD,
            },
            rationale=(
                f"rows_scanned/rows_returned = {amp:.2f} > "
                f"{READ_AMP_THRESHOLD}"
            ),
        )
    ]


# ---------------------------------------------------------------------
# Cluster doctor (``repro serve`` / ``ServingCluster.doctor``)
# ---------------------------------------------------------------------
def diagnose_cluster(cluster) -> List[Recommendation]:
    """The serving-tier doctor: every heuristic reads the coordinator's
    aggregated stats (counters, breaker, admission, and — when the
    cluster runs with observability — per-worker reply deltas and SLO
    service times), never the query path.  Ranked like
    :func:`diagnose`."""
    stats = cluster.stats()
    recs: List[Recommendation] = []
    recs.extend(_check_replica_imbalance(stats))
    recs.extend(_check_breaker_flapping(stats))
    recs.extend(_check_hedge_efficacy(stats))
    recs.extend(_check_shed_rate(stats))
    recs.extend(_check_slow_partitions(stats))
    recs.sort(key=lambda r: _SEVERITY_ORDER.get(r.severity, 9))
    return recs


def _check_replica_imbalance(stats) -> List[Recommendation]:
    """With primary-first routing a healthy partition is served by
    replica 0; backups carrying most of a partition's replies means its
    primary keeps failing over."""
    obs = stats.get("observability")
    if not obs or stats["replication"] < 2:
        return []
    per_partition: Dict[int, Dict[int, int]] = {}
    for worker in obs["workers"]:
        slots = per_partition.setdefault(worker["partition"], {})
        slots[worker["replica"]] = worker["queries"]
    out: List[Recommendation] = []
    for partition, slots in sorted(per_partition.items()):
        total = sum(slots.values())
        if total < REPLICA_MIN_SAMPLES:
            continue
        backup = sum(q for slot, q in slots.items() if slot != 0)
        share = backup / total
        if share < REPLICA_BACKUP_SHARE:
            continue
        out.append(
            Recommendation(
                kind="replica-load-imbalance",
                severity="warning",
                title=(
                    f"partition {partition}: backup replicas served "
                    f"{share:.0%} of {total} replies"
                ),
                action=(
                    f"investigate partition {partition}'s primary "
                    "(replica 0): it keeps losing work to failover or "
                    "hedges — check restarts, fault injection, and the "
                    "breaker state for its slot"
                ),
                evidence={
                    "partition": partition,
                    "backup_share": round(share, 4),
                    "replies": total,
                    "per_replica_queries": {
                        str(s): q for s, q in sorted(slots.items())
                    },
                    "threshold_share": REPLICA_BACKUP_SHARE,
                },
                rationale=(
                    f"backup share {share:.2f} >= {REPLICA_BACKUP_SHARE} "
                    f"over {total} replies (>= {REPLICA_MIN_SAMPLES}); "
                    "primary-first routing only skips a primary that "
                    "failed"
                ),
            )
        )
    return out


def _check_breaker_flapping(stats) -> List[Recommendation]:
    breaker = stats["breaker"]
    trips = breaker["trips"]
    if trips < BREAKER_FLAP_TRIPS:
        return []
    return [
        Recommendation(
            kind="breaker-flapping",
            severity="warning",
            title=(
                f"replica circuit breakers tripped {trips} time(s)"
            ),
            action=(
                "a worker slot is repeatedly failing then recovering: "
                "check worker_restarts and fault sources, and replace "
                "the unhealthy replica"
            ),
            evidence={
                "trips": trips,
                "open_regions": breaker["open_regions"],
                "probes_admitted": breaker["probes_admitted"],
                "worker_restarts": stats["worker_restarts"],
                "failovers": stats["counters"]["failovers"],
                "threshold_trips": BREAKER_FLAP_TRIPS,
            },
            rationale=(
                f"trips {trips} >= {BREAKER_FLAP_TRIPS}; every trip "
                "cost a cooldown of short-circuited attempts first"
            ),
        )
    ]


def _check_hedge_efficacy(stats) -> List[Recommendation]:
    counters = stats["counters"]
    hedges = counters["hedges"]
    if hedges < HEDGE_MIN_SAMPLES:
        return []
    wins = counters["hedge_wins"]
    win_rate = wins / hedges
    if win_rate <= HEDGE_WASTE_WIN_RATE:
        return [
            Recommendation(
                kind="hedge-efficacy",
                severity="info",
                title=(
                    f"hedges win only {win_rate:.0%} of {hedges} sends"
                ),
                action=(
                    "raise hedge_delay_seconds: most hedges duplicate "
                    "work the primary finishes anyway, doubling load on "
                    "the hedged partitions for little latency return"
                ),
                evidence={
                    "hedges": hedges,
                    "hedge_wins": wins,
                    "win_rate": round(win_rate, 4),
                    "threshold_win_rate": HEDGE_WASTE_WIN_RATE,
                },
                rationale=(
                    f"win rate {win_rate:.2f} <= {HEDGE_WASTE_WIN_RATE} "
                    f"over {hedges} hedges (>= {HEDGE_MIN_SAMPLES})"
                ),
            )
        ]
    if win_rate >= HEDGE_CHRONIC_WIN_RATE:
        return [
            Recommendation(
                kind="hedge-efficacy",
                severity="warning",
                title=(
                    f"hedges win {win_rate:.0%} of {hedges} sends — "
                    "primaries straggle chronically"
                ),
                action=(
                    "the hedge is the common path, not the escape "
                    "hatch: find why primaries stall (GC, stalls, slow "
                    "partition) or lower hedge_delay_seconds further and "
                    "provision for doubled fan-out"
                ),
                evidence={
                    "hedges": hedges,
                    "hedge_wins": wins,
                    "win_rate": round(win_rate, 4),
                    "threshold_win_rate": HEDGE_CHRONIC_WIN_RATE,
                },
                rationale=(
                    f"win rate {win_rate:.2f} >= "
                    f"{HEDGE_CHRONIC_WIN_RATE} over {hedges} hedges"
                ),
            )
        ]
    return []


def _check_shed_rate(stats) -> List[Recommendation]:
    admission = stats["admission"]
    rejected = (
        admission["rejected_quota"] + admission["rejected_queue_depth"]
    )
    offered = admission["admitted"] + rejected
    if offered < SHED_MIN_SAMPLES:
        return []
    shed_rate = rejected / offered
    if shed_rate < SHED_RATE_THRESHOLD:
        return []
    return [
        Recommendation(
            kind="shed-rate",
            severity="critical" if shed_rate >= 0.25 else "warning",
            title=(
                f"admission sheds {shed_rate:.0%} of {offered} requests"
            ),
            action=(
                "add capacity or raise admission limits: tenants are "
                "being turned away at the front door "
                f"({admission['rejected_quota']} on quota, "
                f"{admission['rejected_queue_depth']} on queue depth)"
            ),
            evidence={
                "admitted": admission["admitted"],
                "rejected_quota": admission["rejected_quota"],
                "rejected_queue_depth": admission["rejected_queue_depth"],
                "shed_rate": round(shed_rate, 4),
                "threshold_rate": SHED_RATE_THRESHOLD,
            },
            rationale=(
                f"shed rate {shed_rate:.2f} >= {SHED_RATE_THRESHOLD} "
                f"over {offered} offered requests (>= {SHED_MIN_SAMPLES})"
            ),
        )
    ]


def _check_slow_partitions(stats) -> List[Recommendation]:
    obs = stats.get("observability")
    if not obs:
        return []
    service = obs.get("partition_service") or {}
    means = {
        int(p): entry["mean_seconds"]
        for p, entry in service.items()
        if entry["replies"] >= SLOW_PARTITION_MIN_SAMPLES
    }
    if len(means) < 2:
        return []
    mean = sum(means.values()) / len(means)
    if mean <= 0:
        return []
    slowest = max(means, key=lambda p: means[p])
    ratio = means[slowest] / mean
    if ratio < SLOW_PARTITION_RATIO:
        return []
    return [
        Recommendation(
            kind="slow-partition-skew",
            severity="warning",
            title=(
                f"partition {slowest} serves {ratio:.1f}x the mean "
                "partition service time"
            ),
            action=(
                f"rebalance or investigate partition {slowest}: "
                "scatter latency is bounded by the slowest partition, "
                "so the whole cluster pays this tail — compare its salt "
                "load (cluster heatmap) and worker IO to its peers"
            ),
            evidence={
                "slowest_partition": slowest,
                "slowest_mean_seconds": round(means[slowest], 6),
                "cluster_mean_seconds": round(mean, 6),
                "skew_ratio": round(ratio, 2),
                "per_partition_mean_seconds": {
                    str(p): round(m, 6) for p, m in sorted(means.items())
                },
                "threshold_ratio": SLOW_PARTITION_RATIO,
            },
            rationale=(
                f"max/mean partition service {ratio:.2f} >= "
                f"{SLOW_PARTITION_RATIO} with >= "
                f"{SLOW_PARTITION_MIN_SAMPLES} replies per partition"
            ),
        )
    ]


# ---------------------------------------------------------------------
def render_report(recs: List[Recommendation]) -> str:
    if not recs:
        return "doctor: no findings — storage looks healthy"
    lines = [f"doctor: {len(recs)} finding(s)"]
    for rec in recs:
        lines.append(rec.render())
    return "\n".join(lines)


def report_json(recs: List[Recommendation]) -> Dict[str, Any]:
    return {
        "findings": len(recs),
        "recommendations": [r.to_json() for r in recs],
    }
