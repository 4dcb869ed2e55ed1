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
* **resolution-mismatch** — most stored trajectories saturate at
  ``max_resolution`` (raise MaxR: elements too coarse).
* **read-amplification** — the engine scans far more rows than it
  returns (> 8x), i.e. pruning is not containing the scans.

Each rule fires on a benchmark workload or on a skewed store:
``cache-tuning`` and ``read-amplification`` on the threshold and top-k
workloads; ``hot-region-split``, ``salt-skew`` and
``resolution-mismatch`` on a store whose workload concentrates on a few
regions and salts and whose trajectories all index at MaxR.  Thresholds
live in module constants so tests (and DESIGN.md §9) can cite them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.heatmap import _key_label, _stop_label

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
#: share of rows exactly at max_resolution that flags MaxR too low
RESOLUTION_SATURATION = 0.6
#: rows scanned per row returned that flags weak pruning
READ_AMP_THRESHOLD = 8.0

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
    heatmap = engine.heatmap

    recs.extend(_check_hot_regions(engine, heatmap))
    recs.extend(_check_salt_skew(engine, heatmap))
    recs.extend(_check_cache(engine))
    recs.extend(_check_resolution(engine))
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
            f"{_stop_label(region.end_key)})"
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
    histogram = engine.store.resolution_histogram()
    total = sum(histogram.values())
    if total == 0:
        return []
    max_res = engine.config.max_resolution
    at_max = histogram.get(max_res, 0) / total
    if at_max < RESOLUTION_SATURATION:
        return []
    return [
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
                f"mass at MaxR is {at_max:.2f} >= {RESOLUTION_SATURATION}"
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
