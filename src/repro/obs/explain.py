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

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.exceptions import QueryError
from repro.kvstore.metrics import named_counters
from repro.obs.heatmap import _key_label, _stop_label
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
    #: per-lemma rejection funnel
    filter_stats: Dict[str, int]
    #: ScanReport summary
    resilience: Dict[str, Any]
    #: per-region scan distribution + read amplification for this query
    #: (None when storage telemetry is disabled)
    storage: Optional[Dict[str, Any]] = None
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
        fs = self.filter_stats
        lines.append(
            f"local filter funnel: evaluated={fs['evaluated']} -> "
            f"mbr -{fs['rejected_mbr']} -> "
            f"start/end -{fs['rejected_start_end']} -> "
            f"rep-points -{fs['rejected_rep_points']} -> "
            f"boxes -{fs['rejected_boxes']} -> "
            f"passed={fs['passed']}"
        )
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
                    f"share={region['share']:.1%}"
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
            "filter_stats": dict(self.filter_stats),
            "resilience": dict(self.resilience),
            "storage": (
                dict(self.storage) if self.storage is not None else None
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
    tracer = engine.make_tracer()
    before = engine.metrics.counters()
    heatmap = engine.heatmap
    rows_before = list(heatmap.rows) if heatmap is not None else None
    with engine.traced(tracer):
        if eps is not None:
            result = engine.threshold_search(query, eps, measure=measure)
        else:
            result = engine.topk_search(query, k, measure=measure)
    io_delta = named_counters(engine.metrics.since(before))
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
        storage=_storage_delta(engine, rows_before, io_delta),
        result=result,
    )


def _storage_delta(
    engine, rows_before: Optional[List[int]], io_delta
) -> Optional[Dict[str, Any]]:
    """This query's per-region scan distribution — the heatmap's row
    delta mapped onto the current regions — plus its totals and read
    amplification from the IOMetrics delta."""
    if rows_before is None:
        return None
    heatmap = engine.heatmap
    scanned = io_delta["rows_scanned"]
    returned = io_delta["rows_returned"]
    delta = [now - then for now, then in zip(heatmap.rows, rows_before)]
    regions = [
        {
            "start": _key_label(region.start_key),
            "stop": _stop_label(region.end_key),
            "rows_scanned": rows,
            "share": (rows / scanned) if scanned else 0.0,
        }
        for region, rows in heatmap.region_sums(engine.store.table, delta)
        if rows
    ]
    return {
        "rows_scanned": scanned,
        "rows_returned": returned,
        "read_amplification": (scanned / returned) if returned else 0.0,
        "regions": regions,
    }
