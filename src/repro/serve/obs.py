"""Coordinator-side observability aggregation for the serving tier.

The worker processes already run full single-process observability
stacks — ``IOMetrics``, metrics registries, heatmaps, workload logs —
but those live behind a pipe.  This module is the coordinator's
accumulator for what crosses it on the query path:

* **reply deltas** — every successful query reply carries the worker's
  full ``IOMetrics`` counter delta for that request; they are summed
  per ``(partition, replica)`` slot and rolled up cluster-wide, so the
  coordinator's accounting matches the single-process engine
  field-for-field.
* **latency SLOs** — fixed-bucket histograms (the
  :class:`~repro.obs.registry.Histogram` the engine already uses) for
  admission wait, scatter fan-out, per-partition service, hedge wait,
  merge time and end-to-end query time, with p50/p95/p99 estimates and
  error-budget burn counters against a fixed objective
  (:data:`SLO_OBJECTIVE_SECONDS`, :data:`SLO_TARGET`).  They are also
  the cluster's record of slow queries.

Everything here is read-model only: the aggregate is fed from data the
query path already produced, never consulted by it, so answers are
byte-identical whether the aggregate exists or not — and when the
cluster is built without observability none of this is allocated
(the zero-cost-when-off contract).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.obs.registry import Histogram

#: the per-query latency objective, in seconds
SLO_OBJECTIVE_SECONDS = 0.5
#: the fraction of queries that must meet the objective (the SLO)
SLO_TARGET = 0.99

#: SLO histogram keys -> help text; exported as
#: ``trass.serve.slo.{key}_seconds``
SLO_HISTOGRAM_HELP: Dict[str, str] = {
    "admission_wait": "seconds a query spent in the admission gate",
    "fanout": "scatter wall seconds (first send to last gather)",
    "partition_service": "per-partition service seconds (launch to reply)",
    "hedge_wait": "seconds a query stalled before a hedge was sent",
    "merge": "coordinator merge seconds",
    "query": "end-to-end coordinator query seconds",
}


class ClusterObservability:
    """The coordinator's aggregation point for cluster-wide telemetry.

    ``slo_objective_seconds`` is the per-query latency objective;
    ``slo_target`` the fraction of queries that must meet it (the SLO).
    A query is *good* when it completes inside the objective with no
    skipped ranges; the error-budget burn rate is the observed bad
    fraction over the allowed bad fraction (``1 - slo_target``) — burn
    > 1 means the budget is being spent faster than the SLO allows.
    """

    def __init__(self):
        self.slo_objective_seconds = SLO_OBJECTIVE_SECONDS
        self.slo_target = SLO_TARGET
        self.histograms: Dict[str, Histogram] = {
            key: Histogram(f"trass.serve.slo.{key}_seconds", help)
            for key, help in SLO_HISTOGRAM_HELP.items()
        }
        self.slo_good = 0
        self.slo_bad = 0
        #: (partition, replica slot) -> {"queries", "io": {field: sum}}
        self.workers: Dict[Tuple[int, int], Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def observe_slo(self, key: str, seconds: float) -> None:
        self.histograms[key].observe(seconds)

    def observe_query(self, seconds: float, ok: bool = True) -> None:
        """One finished query against the SLO: latency histogram plus
        the error-budget good/bad tally."""
        self.histograms["query"].observe(seconds)
        if ok and seconds <= self.slo_objective_seconds:
            self.slo_good += 1
        else:
            self.slo_bad += 1

    def absorb_reply(self, partition: int, slot: int, reply: Any) -> None:
        """Fold one successful reply's ``IOMetrics`` delta into the
        slot's running totals."""
        agg = self.workers.setdefault(
            (partition, slot), {"queries": 0, "io": {}}
        )
        agg["queries"] += 1
        delta = reply.io_delta
        # A non-dict delta is the coordinator's ClusterError to raise.
        if isinstance(delta, dict):
            io = agg["io"]
            for field, value in delta.items():
                io[field] = io.get(field, 0) + value

    # ------------------------------------------------------------------
    # Aggregated views
    # ------------------------------------------------------------------
    def io_totals(self) -> Dict[str, int]:
        """Cluster rollup: the sum of every reply delta across slots —
        the distributed analogue of ``engine.metrics.snapshot()`` for
        coordinator-routed query work."""
        totals: Dict[str, int] = {}
        for agg in self.workers.values():
            for field, value in agg["io"].items():
                totals[field] = totals.get(field, 0) + value
        return totals

    def error_budget(self) -> Dict[str, Any]:
        total = self.slo_good + self.slo_bad
        bad_rate = (self.slo_bad / total) if total else 0.0
        allowed = 1.0 - self.slo_target
        return {
            "objective_seconds": self.slo_objective_seconds,
            "target": self.slo_target,
            "good_events": self.slo_good,
            "bad_events": self.slo_bad,
            "bad_rate": bad_rate,
            "burn_rate": (bad_rate / allowed) if allowed > 0 else 0.0,
        }

    def snapshot(self) -> Dict[str, Any]:
        """The JSON-friendly aggregate for ``cluster.stats()``: a read
        of coordinator memory, never a round trip to a worker."""
        return {
            "slo": {
                "summaries": {
                    key: hist.summary()
                    for key, hist in sorted(self.histograms.items())
                },
                "histograms": {
                    key: hist.to_json()
                    for key, hist in sorted(self.histograms.items())
                },
                "error_budget": self.error_budget(),
            },
            "workers": [
                {
                    "partition": partition,
                    "replica": slot,
                    "queries": agg["queries"],
                    "io": dict(agg["io"]),
                }
                for (partition, slot), agg in sorted(self.workers.items())
            ],
            "cluster_io": self.io_totals(),
        }
