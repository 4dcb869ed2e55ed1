"""EXPLAIN ANALYZE: run a query under tracing, render the phase tree.

``engine.explain()`` describes the *plan*; this module runs the query
and ties every phase to what actually happened: candidates in/out,
rows scanned and returned, cache hit rates, the per-lemma rejection
funnel, retries/breaker/skip accounting, and per-phase durations from
the span tree (virtual time under fault injection, so chaos runs
render deterministically).

The counts are taken from the same :class:`IOMetrics` deltas the
benchmarks use — the report's ``rows scanned`` *is* the counter delta
for the query, by construction, not a parallel bookkeeping path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exceptions import QueryError
from repro.obs.tracing import Span, Tracer, format_span_tree


def _hit_rate(hits: int, misses: int) -> Optional[float]:
    total = hits + misses
    return hits / total if total else None


@dataclass
class ExplainAnalyzeReport:
    """Everything one traced query produced."""

    #: "threshold" or "topk"
    kind: str
    query_tid: str
    #: eps for threshold, k for top-k
    parameter: float
    measure: str
    answers: int
    candidates: int
    retrieved_rows: int
    #: IOMetrics counter deltas over the traced query
    io_delta: Dict[str, int]
    #: the query's root span
    root: Span
    #: per-lemma rejection funnel (None when no partition of a
    #: cluster-routed query answered)
    filter_stats: Optional[Dict[str, int]] = None
    #: ScanReport summary
    resilience: Optional[Dict[str, Any]] = None
    #: per-region scan distribution + read amplification for this query
    #: (None when storage telemetry is disabled)
    storage: Optional[Dict[str, Any]] = None
    #: per-partition breakdown for cluster-routed queries (None on the
    #: single-process path): attribution plus the worker's own measured
    #: handler duration from the grafted span subtree
    partitions: Optional[List[Dict[str, Any]]] = None
    result: Any = None

    # ------------------------------------------------------------------
    @property
    def duration_seconds(self) -> float:
        return self.root.duration

    def cache_hit_rates(self) -> Dict[str, Optional[float]]:
        d = self.io_delta
        return {
            "block": _hit_rate(
                d["block_cache_hits"], d["block_cache_misses"]
            ),
            "record": _hit_rate(
                d["record_cache_hits"], d["record_cache_misses"]
            ),
            "plan": _hit_rate(d["plan_cache_hits"], d["plan_cache_misses"]),
        }

    # ------------------------------------------------------------------
    def render(self, max_children: int = 16, show_events: bool = False) -> str:
        """The human-readable EXPLAIN ANALYZE output."""
        lines: List[str] = []
        param = (
            f"eps={self.parameter:g}"
            if self.kind == "threshold"
            else f"k={int(self.parameter)}"
        )
        lines.append(
            f"EXPLAIN ANALYZE {self.kind} {param} measure={self.measure} "
            f"query={self.query_tid!r}"
        )
        lines.append(
            f"answers={self.answers}  candidates={self.candidates}  "
            f"rows_scanned={self.io_delta['rows_scanned']}  "
            f"rows_returned={self.io_delta['rows_returned']}  "
            f"duration={self.duration_seconds * 1000.0:.3f} ms"
        )
        rates = self.cache_hit_rates()
        rate_bits = []
        for tier in ("block", "record", "plan"):
            rate = rates[tier]
            rate_bits.append(
                f"{tier}={rate:.1%}" if rate is not None else f"{tier}=n/a"
            )
        lines.append("cache hit rates: " + "  ".join(rate_bits))
        if self.filter_stats is not None:
            fs = self.filter_stats
            lines.append(
                f"local filter funnel: evaluated={fs['evaluated']} -> "
                f"mbr -{fs['rejected_mbr']} -> "
                f"start/end -{fs['rejected_start_end']} -> "
                f"rep-points -{fs['rejected_rep_points']} -> "
                f"boxes -{fs['rejected_boxes']} -> "
                f"passed={fs['passed']}"
            )
        if self.resilience is not None:
            res = self.resilience
            lines.append(
                f"resilience: {res['ranges_completed']}/{res['ranges_total']} "
                f"ranges completed, {res['retries']} retries, "
                f"{res['breaker_short_circuits']} breaker rejections, "
                f"completeness={res['completeness']:.3f}"
            )
        if self.storage is not None:
            st = self.storage
            lines.append(
                f"storage: read amplification {st['read_amplification']:.2f} "
                f"({st['rows_scanned']} scanned / {st['rows_returned']} "
                f"returned) across {len(st['regions'])} region(s)"
            )
            for region in st["regions"]:
                lines.append(
                    f"  region [{region['start']} .. {region['stop']}) "
                    f"scanned={region['rows_scanned']} "
                    f"returned={region['rows_returned']} "
                    f"share={region['share']:.1%}"
                )
        if self.partitions is not None:
            lines.append(
                f"cluster fan-out: {len(self.partitions)} partition(s)"
            )
            for part in self.partitions:
                worker = part.get("worker_seconds")
                worker_bit = (
                    f"worker={worker * 1000.0:.3f} ms"
                    if worker is not None
                    else "worker=n/a"
                )
                lines.append(
                    f"  partition {part['partition']} "
                    f"replica={part['replica']} "
                    f"attempts={part['attempts']} "
                    f"hedged={part['hedged']} reached={part['reached']} "
                    f"{worker_bit}"
                )
        lines.append("")
        lines.append(
            format_span_tree(
                self.root, max_children=max_children, show_events=show_events
            )
        )
        return "\n".join(lines)

    def to_json(self, include_events: bool = False) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "query_tid": self.query_tid,
            "parameter": self.parameter,
            "measure": self.measure,
            "answers": self.answers,
            "candidates": self.candidates,
            "retrieved_rows": self.retrieved_rows,
            "duration_seconds": self.duration_seconds,
            "io_delta": dict(self.io_delta),
            "cache_hit_rates": self.cache_hit_rates(),
            "filter_stats": (
                dict(self.filter_stats)
                if self.filter_stats is not None
                else None
            ),
            "resilience": (
                dict(self.resilience) if self.resilience is not None else None
            ),
            "storage": (
                dict(self.storage) if self.storage is not None else None
            ),
            "partitions": (
                [dict(p) for p in self.partitions]
                if self.partitions is not None
                else None
            ),
            "trace": self.root.to_dict(include_events),
        }


def explain_analyze(
    engine,
    query,
    eps: Optional[float] = None,
    k: Optional[int] = None,
    measure: Optional[str] = None,
) -> ExplainAnalyzeReport:
    """Run one query under a fresh tracer and package the evidence.

    Exactly one of ``eps`` (threshold search) and ``k`` (top-k) must be
    given.  The engine's configured tracer is restored afterwards, and
    the run counts into ``IOMetrics`` exactly like an untraced query.
    """
    if (eps is None) == (k is None):
        raise QueryError("provide exactly one of eps (threshold) or k (topk)")
    if getattr(engine, "remote_executor", None) is not None:
        return _explain_analyze_cluster(engine, query, eps, k, measure)
    tracer = engine.make_tracer()
    before = engine.metrics.snapshot()
    telemetry = engine.storage_telemetry
    regions_before = (
        telemetry.region_snapshot() if telemetry is not None else None
    )
    with engine.traced(tracer):
        if eps is not None:
            result = engine.threshold_search(query, eps, measure=measure)
        else:
            result = engine.topk_search(query, k, measure=measure)
    io_delta = engine.metrics.diff(before)
    roots = tracer.traces()
    if not roots:
        raise QueryError("tracer recorded no spans for the query")
    root = roots[-1]

    if eps is not None:
        kind = "threshold"
        parameter = float(eps)
    else:
        kind = "topk"
        parameter = float(k)
    return ExplainAnalyzeReport(
        kind=kind,
        query_tid=query.tid,
        parameter=parameter,
        measure=engine._resolve_measure(measure).name,
        answers=len(result.answers),
        candidates=result.candidates,
        retrieved_rows=result.retrieved_rows,
        io_delta=io_delta,
        root=root,
        filter_stats=result.filter_stats.as_dict(),
        resilience=result.resilience.summary(),
        storage=_storage_delta(telemetry, regions_before, io_delta),
        result=result,
    )


def _explain_analyze_cluster(
    engine,
    query,
    eps: Optional[float],
    k: Optional[int],
    measure: Optional[str],
) -> ExplainAnalyzeReport:
    """EXPLAIN ANALYZE through the serving tier.

    The coordinator runs under a fresh tracer (trace-stamping every
    worker request, so the span tree stitches coordinator and worker
    halves), and the IO delta comes from the cluster's reply-delta
    rollup — the distributed analogue of the local counter diff.  The
    cluster's configured tracer is restored afterwards.
    """
    from repro.kvstore.metrics import IOMetrics

    cluster = engine.remote_executor
    tracer = engine.make_tracer()
    io_before = cluster.io_totals()
    previous = cluster.tracer
    cluster.tracer = tracer
    try:
        if eps is not None:
            result = engine.threshold_search(query, eps, measure=measure)
        else:
            result = engine.topk_search(query, k, measure=measure)
    finally:
        cluster.tracer = previous
    io_after = cluster.io_totals()
    # Zero-filled over the full IOMetrics field set so the report reads
    # identically to the single-process one; without cluster
    # observability both rollups are empty and the delta is all zeros.
    io_delta = {name: 0 for name in IOMetrics().snapshot()}
    for name in set(io_before) | set(io_after):
        io_delta[name] = io_after.get(name, 0) - io_before.get(name, 0)
    roots = tracer.traces()
    if not roots:
        raise QueryError("tracer recorded no spans for the query")
    root = roots[-1]

    partitions: List[Dict[str, Any]] = []
    for span in root.find("serve.partition"):
        workers = span.find("worker.handle")
        partitions.append(
            {
                "partition": span.attrs.get("partition"),
                "replica": span.attrs.get("replica"),
                "attempts": span.attrs.get("attempts"),
                "hedged": span.attrs.get("hedged"),
                "reached": span.attrs.get("reached"),
                "worker_seconds": (
                    workers[0].duration if workers else None
                ),
            }
        )

    filter_stats = getattr(result, "filter_stats", None)
    resilience = getattr(result, "resilience", None)
    if eps is not None:
        kind = "threshold"
        parameter = float(eps)
    else:
        kind = "topk"
        parameter = float(k)
    return ExplainAnalyzeReport(
        kind=kind,
        query_tid=query.tid,
        parameter=parameter,
        measure=engine._resolve_measure(measure).name,
        answers=len(result.answers),
        candidates=result.candidates,
        retrieved_rows=result.retrieved_rows,
        io_delta=io_delta,
        root=root,
        filter_stats=(
            filter_stats.as_dict() if filter_stats is not None else None
        ),
        resilience=(
            resilience.summary() if resilience is not None else None
        ),
        storage=None,
        partitions=partitions,
        result=result,
    )


def _storage_delta(
    telemetry, regions_before: Optional[Dict[int, Dict[str, Any]]], io_delta
) -> Optional[Dict[str, Any]]:
    """This query's per-region scan distribution: the telemetry
    snapshot delta, plus read amplification from the IOMetrics delta
    (the two agree by construction — both count logical rows)."""
    if telemetry is None or regions_before is None:
        return None
    scanned = io_delta["rows_scanned"]
    returned = io_delta["rows_returned"]
    regions: List[Dict[str, Any]] = []
    for region_id, after in sorted(telemetry.region_snapshot().items()):
        prior = regions_before.get(region_id)
        rows_scanned = after["rows_scanned"] - (
            prior["rows_scanned"] if prior else 0
        )
        rows_returned = after["rows_returned"] - (
            prior["rows_returned"] if prior else 0
        )
        if rows_scanned == 0 and rows_returned == 0:
            continue
        regions.append(
            {
                "start": after["start"],
                "stop": after["stop"],
                "rows_scanned": rows_scanned,
                "rows_returned": rows_returned,
                "share": (rows_scanned / scanned) if scanned else 0.0,
            }
        )
    return {
        "rows_scanned": scanned,
        "rows_returned": returned,
        "read_amplification": (scanned / returned) if returned else 0.0,
        "regions": regions,
    }
