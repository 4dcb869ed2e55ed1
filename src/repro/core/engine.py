"""The TraSS facade — the library's main entry point.

Typical use::

    from repro import TraSS, Trajectory

    engine = TraSS.build(trajectories)
    result = engine.threshold_search(query, eps=0.01)
    top = engine.topk_search(query, k=50)

The engine owns a :class:`~repro.core.storage.TrajectoryStore` (the
key-value table plus XZ* placement), a
:class:`~repro.core.pruning.GlobalPruner`, and the configured measure.
Per-call ``measure`` overrides support the Section VII experiments
(Hausdorff, DTW) without rebuilding the store.  Every registered
measure satisfies the Lemma 5 point lower bound, so every query runs
the pruned path (Algorithms 3 and 4).

The engine answers from its own store only.  To serve a dataset from
shard worker processes, build a :class:`repro.serve.ServingCluster`
(``ServingCluster.from_engine(engine, ...)``) and query the cluster: it
has the same ``threshold_search`` / ``topk_search`` / ``*_many`` calls.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

from repro.core.config import TraSSConfig
from repro.core.pruning import (
    GlobalPruner,
    PruningResult,
    check_threshold,
    normalise_thresholds,
)
from repro.core.storage import INTEGER_KEYS, TrajectoryStore
from repro.core.threshold import (
    ThresholdSearchResult,
    threshold_search,
    threshold_search_many,
)
from repro.core.topk import TopKSearchResult, check_k, topk_search
from repro.exceptions import KVStoreError, QueryError
from repro.geometry.mbr import MBR
from repro.geometry.trajectory import Trajectory
from repro.kvstore.metrics import IOMetrics
from repro.measures.base import Measure, get_measure
from repro.obs.registry import MetricsRegistry, update_registry_from_engine
from repro.obs.tracing import NULL_TRACER, Tracer


#: query kind -> the name of its parameter (span attribute, wire key)
QUERY_PARAMETER = {"threshold": "eps", "topk": "k"}


class TraSS:
    """Trajectory similarity search over an embedded key-value store."""

    def __init__(
        self,
        config: Optional[TraSSConfig] = None,
        key_encoding: str = INTEGER_KEYS,
    ):
        self.config = config if config is not None else TraSSConfig()
        self.store = TrajectoryStore(self.config, key_encoding)
        # The planner walks only subtrees and code blocks that hold a
        # stored index value.
        self.pruner = GlobalPruner.from_config(
            self.store.index, self.config, self.store.metrics, occupancy=self.store
        )
        self.measure: Measure = self.config.make_measure()
        self._init_observability()

    def _init_observability(self) -> None:
        """Wire the tracing / metrics / workload read models.

        Tracing starts off (the :data:`NULL_TRACER` sentinel); the
        registry exists from the start so counters accumulate whether
        or not anyone exports them.
        """
        self._tracer = NULL_TRACER
        self.store.executor.tracer = NULL_TRACER
        self.registry = MetricsRegistry()
        #: query kind -> (latency histogram, kind counter)
        self._query_meters: Dict[str, tuple] = {}
        if self.config.storage_telemetry:
            from repro.obs.workload_log import WorkloadRecorder

            self._workload_recorder = WorkloadRecorder()
        else:
            self._workload_recorder = None

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        trajectories: Iterable[Trajectory],
        config: Optional[TraSSConfig] = None,
        key_encoding: str = INTEGER_KEYS,
    ) -> "TraSS":
        """Create an engine and ingest ``trajectories``."""
        engine = cls(config, key_encoding)
        engine.add_all(trajectories)
        return engine

    def add(self, trajectory: Trajectory) -> int:
        """Index and store one trajectory; returns its index value."""
        return self.store.put(trajectory)

    def add_all(
        self, trajectories: Iterable[Trajectory], sorted_ingest: bool = False
    ) -> int:
        """Bulk ingest; returns the number stored.

        ``sorted_ingest`` key-sorts the batch first (LSM bulk-load
        idiom); the result is identical, the write path cheaper.
        """
        return self.store.put_all(trajectories, sorted_ingest=sorted_ingest)

    def __len__(self) -> int:
        return self.store.trajectory_count

    @property
    def metrics(self) -> IOMetrics:
        return self.store.metrics

    def configure_execution(
        self,
        cache_mb: Optional[float] = None,
        plan_cache_size: Optional[int] = None,
    ) -> None:
        """Re-tune the cache tiers without rebuilding the store
        (``None`` keeps a knob as configured).  Used by the CLI's
        ``--cache-mb`` override."""
        self.store.configure_execution(cache_mb, plan_cache_size)
        self.config = self.store.config
        if plan_cache_size is not None:
            from repro.kvstore.cache import ObjectLRUCache

            self.pruner.plan_cache = (
                ObjectLRUCache(plan_cache_size) if plan_cache_size > 0 else None
            )

    def _resolve_measure(self, measure: Optional[str]) -> Measure:
        if measure is None:
            return self.measure
        return get_measure(measure)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        return self._tracer

    def make_tracer(self) -> Tracer:
        """A tracer on the executor's clock: real monotonic time
        normally, purely virtual time under fault injection — so chaos
        traces are a deterministic function of ``(seed, workload)``."""
        return Tracer(clock=self.store.executor.trace_clock)

    def set_tracer(self, tracer) -> None:
        """Install ``tracer`` on the engine and its executor (``None``
        turns tracing off)."""
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.store.executor.tracer = self._tracer

    @contextmanager
    def traced(self, tracer=None):
        """Run queries under ``tracer`` (a fresh one when omitted),
        restoring the previous tracer afterwards::

            with engine.traced() as tracer:
                engine.threshold_search(q, eps)
            root = tracer.traces()[-1]
        """
        if tracer is None:
            tracer = self.make_tracer()
        previous = self._tracer
        self.set_tracer(tracer)
        try:
            yield tracer
        finally:
            self.set_tracer(previous)

    def _observe_query(
        self,
        kind: str,
        query: Trajectory,
        parameter: float,
        seconds: float,
        result,
        measure: str,
        record: bool,
    ) -> None:
        """Per-query bookkeeping: latency histogram, query counters,
        the workload recorder (when ``record``: batched queries are not
        captured) and heat decay.  Pure read-model — never touches
        IOMetrics."""
        meters = self._query_meters.get(kind)
        if meters is None:
            # Resolved on a kind's first query, so neither metric is
            # exported before a query has been answered.
            meters = self._query_meters[kind] = (
                self.registry.histogram(
                    "trass.query.seconds", "query wall time in seconds"
                ),
                self.registry.counter(
                    f"trass.query.{kind}.count", f"{kind} queries answered"
                ),
            )
        meters[0].observe(seconds)
        meters[1].inc()
        recorder = self._workload_recorder
        if record and recorder is not None and recorder.enabled:
            recorder.record(kind, query, parameter, measure, seconds, result)
        heatmap = self.store.table.heatmap
        if heatmap is not None:
            heatmap.advance_tick()

    @property
    def heatmap(self):
        """The table's key-space heatmap (``None`` when
        ``config.storage_telemetry`` is off)."""
        return self.store.table.heatmap

    @property
    def workload_recorder(self):
        """The workload capture ring buffer (``None`` when disabled)."""
        return self._workload_recorder

    def doctor(self):
        """Run the tuning advisor; returns ranked
        :class:`~repro.obs.advisor.Recommendation` objects."""
        from repro.obs.advisor import diagnose

        return diagnose(self)

    def replay(self, entries=None):
        """Re-execute the captured workload; returns a
        :class:`~repro.obs.workload_log.ReplayReport`."""
        from repro.obs.workload_log import replay_workload

        return replay_workload(self, entries)

    def explain_analyze(
        self,
        query: Trajectory,
        eps: Optional[float] = None,
        k: Optional[int] = None,
        measure: Optional[str] = None,
    ):
        """Run the query under tracing and return an
        :class:`~repro.obs.explain.ExplainAnalyzeReport` tying every
        phase to its measured counts and durations."""
        from repro.obs.explain import explain_analyze as _explain_analyze

        return _explain_analyze(self, query, eps=eps, k=k, measure=measure)

    def export_metrics(self, fmt: str = "json"):
        """Refresh the metrics registry from current engine state and
        export it (``"json"`` dict or ``"prometheus"`` text)."""
        update_registry_from_engine(self.registry, self)
        if fmt == "json":
            return self.registry.to_json()
        if fmt in ("prometheus", "prom", "text"):
            return self.registry.to_prometheus()
        raise QueryError(
            f"unknown metrics format {fmt!r} (use 'json' or 'prometheus')"
        )

    # ------------------------------------------------------------------
    # Fault injection / resilience
    # ------------------------------------------------------------------
    def install_fault_injector(self, injector) -> None:
        """Attach a :class:`~repro.kvstore.faults.FaultInjector` to the
        underlying table (``None`` detaches).  Query scans then face the
        injector's schedule and survive it via the resilient executor —
        the entry point of the chaos suite and the ``repro chaos`` CLI.
        """
        self.store.install_fault_injector(injector)

    @property
    def fault_injector(self):
        return self.store.table.fault_injector

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def threshold_search(
        self,
        query: Trajectory,
        eps: float,
        measure: Optional[str] = None,
    ) -> ThresholdSearchResult:
        """All trajectories with ``f(query, T) <= eps`` (Definition 3)."""
        check_threshold(eps)
        return self._answer("threshold", query, eps, measure)

    def topk_search(
        self,
        query: Trajectory,
        k: int,
        measure: Optional[str] = None,
    ) -> TopKSearchResult:
        """The ``k`` most similar trajectories (Definition 4)."""
        check_k(k)
        return self._answer("topk", query, k, measure)

    def threshold_search_many(
        self,
        queries: Iterable[Trajectory],
        eps,
        measure: Optional[str] = None,
    ) -> List[ThresholdSearchResult]:
        """Answer many threshold queries over one deduplicated scan.

        ``eps`` is a single threshold for the whole batch or any
        iterable aligned with ``queries``.  Every query is planned, then
        one :func:`~repro.core.threshold.scan_and_refine` — the scan a
        single query runs — serves them all: a shared key region is
        scanned once, and each row is decoded once and filtered for
        every query whose plan covers it.  Results are aligned and
        bit-identical to :meth:`threshold_search` per query, each with
        its own ``ScanReport``; only the I/O differs, by
        ``metrics.batch_ranges_merged`` / ``batch_rows_shared``.

        Batched queries skip the workload recorder: per-query I/O
        deltas are meaningless under a shared scan.
        """
        queries, eps_list = normalise_thresholds(queries, eps)
        started = time.perf_counter()
        resolved = self._resolve_measure(measure)
        with self._tracer.span(
            "query.threshold_batch",
            queries=len(queries),
            measure=resolved.name,
        ) as root:
            results = threshold_search_many(
                self.store,
                self.pruner,
                resolved,
                queries,
                eps_list,
                self._tracer,
            )
            root.set_attrs(
                answers=sum(len(r.answers) for r in results),
                candidates=sum(r.candidates for r in results),
            )
        elapsed = time.perf_counter() - started
        per_query = elapsed / len(queries) if queries else 0.0
        for query, value, result in zip(queries, eps_list, results):
            self._observe_query(
                "threshold",
                query,
                value,
                per_query,
                result,
                measure=resolved.name,
                record=False,
            )
        return results

    def topk_search_many(
        self,
        queries: Iterable[Trajectory],
        k: int,
        measure: Optional[str] = None,
    ) -> List[TopKSearchResult]:
        """Answer many top-k queries; results align with ``queries``.

        Top-k plans adaptively (each answer tightens the working
        threshold), so there is no up-front range set to share — the
        queries run one at a time; this exists so batch callers can
        call an engine and a ``ServingCluster`` alike.
        """
        check_k(k)
        return [self.topk_search(q, k, measure=measure) for q in queries]

    def _answer(
        self, kind: str, query: Trajectory, parameter, measure: Optional[str]
    ):
        """One query of ``kind`` through the local pipeline, timed and
        observed."""
        resolved = self._resolve_measure(measure)
        started = time.perf_counter()
        with self._tracer.span(
            f"query.{kind}",
            tid=query.tid,
            **{QUERY_PARAMETER[kind]: parameter},
            measure=resolved.name,
        ) as root:
            search = threshold_search if kind == "threshold" else topk_search
            result = search(
                self.store,
                self.pruner,
                resolved,
                query,
                parameter,
                self._tracer,
            )
            root.set_attrs(
                answers=len(result.answers),
                candidates=result.candidates,
                rows_retrieved=result.retrieved_rows,
                completeness=result.completeness,
            )
        self._observe_query(
            kind,
            query,
            parameter,
            time.perf_counter() - started,
            result,
            measure=resolved.name,
            record=True,
        )
        return result

    def plan(self, query: Trajectory, eps: float) -> PruningResult:
        """Global pruning only — expose the scan plan for inspection."""
        return self.pruner.prune(query, eps)

    def explain(self, query: Trajectory, eps: float) -> str:
        """A human-readable description of the query plan.

        Shows the resolution band, pruning tallies, the resulting key
        ranges, and how many stored rows fall inside them — the numbers
        a user needs to understand why a query is fast or slow.
        """
        plan = self.pruner.prune(query, eps)
        element, code = self.store.index.place(query)
        rows_covered = sum(
            count
            for value, count in self.store.value_histogram.items()
            if any(r.contains(value) for r in plan.ranges)
        )
        lines = [
            f"threshold search: eps={eps}, measure={self.measure.name}",
            f"query MBR: ({query.mbr.min_x:.6g}, {query.mbr.min_y:.6g}) .. "
            f"({query.mbr.max_x:.6g}, {query.mbr.max_y:.6g})",
            f"query index space: element '{element.sequence_str}' "
            f"(level {element.level}), position code {code}",
            f"resolution band: [{plan.min_resolution}, {plan.max_resolution}]",
            f"elements visited: {plan.elements_visited} "
            f"(empty: {plan.elements_pruned_empty}, "
            f"distance-pruned: {plan.elements_pruned_distance}, "
            f"collapsed subtrees: {plan.collapsed_subtrees}"
            f"{', TRUNCATED' if plan.truncated else ''})",
            f"position codes pruned: {plan.codes_pruned_far_quad} far-quad, "
            f"{plan.codes_pruned_min_dist} minDistIS",
            f"scan plan: {len(plan.ranges)} key range(s) covering "
            f"{plan.num_index_spaces} index spaces x {self.config.shards} "
            f"shard(s)",
            f"rows inside the plan: {rows_covered} of "
            f"{self.store.trajectory_count}",
        ]
        return "\n".join(lines)

    def range_query(self, window: MBR) -> List[str]:
        """Trajectory ids with at least one point inside ``window``.

        The spatial range query the paper's conclusion notes XZ*
        supports: index-space candidate generation plus an exact
        point-in-window check per retrieved row.
        """
        ranges = self.store.index.range_query_ranges(window)
        tids: List[str] = []
        rows, _ = self.store.executor.scan_ranges(
            self.store.scan_ranges_for(ranges)
        )
        for key, value in rows:
            record = self.store.decode_record(key, value)
            if any(window.contains_point(x, y) for x, y in record.points):
                tids.append(record.tid)
        return sorted(set(tids))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str, compact: bool = True) -> None:
        """Snapshot the engine's store into ``directory`` as compact
        mmap segments (plus the heatmap + workload log when storage
        telemetry is on).

        ``compact`` survives only for callers that still pass
        ``compact=True``; segments are the one on-disk format, so any
        false value raises :class:`KVStoreError`."""
        if not compact:
            raise KVStoreError(
                "plain SSTable snapshots are no longer written; every "
                "save writes compact segments"
            )
        self.store.save(directory)
        from repro.obs.workload_log import save_observability

        save_observability(self, directory)

    @classmethod
    def load(cls, directory: str) -> "TraSS":
        """Restore an engine from a :meth:`save` snapshot."""
        store = TrajectoryStore.load(directory)
        engine = cls.__new__(cls)
        engine.config = store.config
        engine.store = store
        engine.pruner = GlobalPruner.from_config(
            store.index, store.config, store.metrics, occupancy=store
        )
        engine.measure = store.config.make_measure()
        engine._init_observability()
        from repro.obs.workload_log import load_observability

        load_observability(engine, directory)
        return engine

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """A bundle of store-level statistics (used by the benches)."""
        injector = self.fault_injector
        return {
            "trajectories": self.store.trajectory_count,
            "regions": self.store.table.num_regions,
            "distinct_index_values": len(self.store.value_histogram),
            "selectivity": (
                self.store.selectivity() if len(self) else float("nan")
            ),
            "approximate_bytes": self.store.table.approximate_size,
            "io": self.metrics.snapshot(),
            "resilience": {
                "breaker": self.store.executor.breaker.snapshot(),
                "faults": (
                    injector.summary() if injector is not None else None
                ),
            },
            "storage": self._storage_stats(),
        }

    def _storage_stats(self) -> Dict[str, object]:
        from repro.obs.storage_stats import collect_storage_stats

        return collect_storage_stats(self)
