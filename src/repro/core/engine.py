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
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

from repro.core.batch import normalise_thresholds, threshold_search_many
from repro.core.config import TraSSConfig
from repro.core.pruning import GlobalPruner, PruningResult, check_threshold
from repro.core.storage import INTEGER_KEYS, TrajectoryStore
from repro.core.threshold import ThresholdSearchResult, threshold_search
from repro.core.topk import TopKSearchResult, check_k, topk_search
from repro.exceptions import QueryError
from repro.geometry.mbr import MBR
from repro.geometry.trajectory import Trajectory
from repro.kvstore.metrics import IOMetrics
from repro.measures.base import Measure, get_measure
from repro.obs.registry import MetricsRegistry, update_registry_from_engine
from repro.obs.slowlog import SlowQueryLog
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
        self.pruner = GlobalPruner(
            self.store.index,
            self.config.max_planned_elements,
            plan_cache_size=self.config.plan_cache_size,
            metrics=self.store.metrics,
            range_merge_gap=self.config.range_merge_gap,
        )
        self.measure: Measure = self.config.make_measure()
        self._init_observability()

    def _init_observability(self) -> None:
        """Wire the tracing / metrics / slow-log read models.

        Tracing starts off (the :data:`NULL_TRACER` sentinel); the
        registry and slow-query log exist from the start so counters
        and slow queries accumulate whether or not anyone exports them.
        """
        self._tracer = NULL_TRACER
        self.store.executor.tracer = NULL_TRACER
        #: optional remote executor (a ``repro.serve.ServingCluster``);
        #: when set, queries are answered by the cluster instead of the
        #: local store — see :meth:`set_remote_executor`
        self._remote_executor = None
        self.registry = MetricsRegistry()
        self.slow_query_log = SlowQueryLog(
            capacity=self.config.slow_query_log_size,
            threshold_seconds=self.config.slow_query_threshold_seconds,
        )
        if self.config.storage_telemetry:
            from repro.obs.workload_log import WorkloadRecorder

            self._workload_recorder = WorkloadRecorder(
                capacity=self.config.workload_log_size
            )
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
    # Remote execution (the serving tier)
    # ------------------------------------------------------------------
    def set_remote_executor(self, remote) -> None:
        """Route queries through ``remote`` (a started
        ``repro.serve.ServingCluster``) instead of the local store;
        ``None`` detaches and restores local execution.  Answers are
        bit-identical either way — only the execution substrate moves.
        """
        self._remote_executor = remote

    @property
    def remote_executor(self):
        return self._remote_executor

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
        measure: Optional[str] = None,
        io_before: Optional[Dict[str, int]] = None,
        origin: str = "local",
        fanout=None,
    ) -> None:
        """Per-query bookkeeping: latency histogram, query counters,
        the slow-query log, the workload recorder and heat decay.  Pure
        read-model — never touches IOMetrics.  Cluster-routed queries
        pass ``origin="cluster"`` plus the coordinator's per-partition
        fan-out attribution, so slow entries name the shard/replica
        that served (or stalled) them."""
        self.registry.histogram(
            "trass.query.seconds", "query wall time in seconds"
        ).observe(seconds)
        self.registry.counter(
            f"trass.query.{kind}.count", f"{kind} queries answered"
        ).inc()
        self.slow_query_log.observe(
            kind=kind,
            query_tid=query.tid,
            parameter=float(parameter),
            seconds=seconds,
            candidates=result.candidates,
            answers=len(result.answers),
            completeness=result.completeness,
            origin=origin,
            fanout=fanout,
        )
        recorder = self._workload_recorder
        if recorder is not None and recorder.enabled and io_before is not None:
            recorder.record(
                kind=kind,
                query=query,
                parameter=parameter,
                measure=measure,
                seconds=seconds,
                io_delta=self.metrics.diff(io_before),
                result=result,
                generation=self.store.table.generation,
            )
        telemetry = self.storage_telemetry
        if telemetry is not None:
            telemetry.advance_tick()

    def _io_before_query(self) -> Optional[Dict[str, int]]:
        """A pre-query IOMetrics snapshot when the workload recorder
        wants per-query I/O deltas (``None`` otherwise — snapshotting is
        read-only either way, this just skips the copy)."""
        recorder = self._workload_recorder
        if recorder is not None and recorder.enabled:
            return self.metrics.snapshot()
        return None

    @property
    def storage_telemetry(self):
        """The table's storage telemetry sink (``None`` when
        ``config.storage_telemetry`` is off)."""
        return self.store.table.storage_telemetry

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
        export it (``"json"`` dict or ``"prometheus"`` text).  With a
        remote executor attached, the cluster's aggregated metrics
        (``trass.serve.*`` — per-worker deltas, SLO histograms, rollups)
        land in the same dump, so one scrape describes the cluster."""
        update_registry_from_engine(self.registry, self)
        if self._remote_executor is not None:
            from repro.obs.registry import update_registry_from_cluster

            update_registry_from_cluster(
                self.registry, self._remote_executor
            )
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
        iterable aligned with ``queries``.  The per-query ranges are
        planned up front, coalesced (overlapping or touching byte ranges
        merge, so a shared key region is scanned once), and every
        scanned row is demultiplexed to the queries whose plan covers
        it.  Results are positionally aligned and bit-identical to
        calling :meth:`threshold_search` per query; only the I/O differs
        — ``metrics.batch_ranges_merged`` / ``batch_rows_shared`` say by
        how much.

        Batched queries skip the workload recorder: per-query I/O
        deltas are meaningless under a shared scan.
        """
        queries, eps_list = normalise_thresholds(queries, eps)
        return self._answer_many("threshold", queries, eps_list, measure)

    def topk_search_many(
        self,
        queries: Iterable[Trajectory],
        k: int,
        measure: Optional[str] = None,
    ) -> List[TopKSearchResult]:
        """Answer many top-k queries; results align with ``queries``.

        Top-k plans adaptively (each answer tightens the working
        threshold), so there is no up-front range set to share — a
        local engine runs the queries one at a time; this exists so
        batch callers can stay mode-agnostic.
        """
        check_k(k)
        return self._answer_many("topk", list(queries), k, measure)

    def _answer(
        self, kind: str, query: Trajectory, parameter, measure: Optional[str]
    ):
        """One query of ``kind`` on the attached cluster or the local
        pipeline, timed and observed identically on both."""
        remote = self._remote_executor
        io_before = fanout = None
        if remote is not None:
            started = time.perf_counter()
            search = getattr(remote, f"{kind}_search")
            result = search(query, parameter, measure=measure)
            fanout = getattr(remote, "last_fanout", None)
        else:
            resolved = self._resolve_measure(measure)
            measure = resolved.name
            io_before = self._io_before_query()
            started = time.perf_counter()
            with self._tracer.span(
                f"query.{kind}",
                tid=query.tid,
                **{QUERY_PARAMETER[kind]: parameter},
                measure=measure,
            ) as root:
                search = (
                    threshold_search if kind == "threshold" else topk_search
                )
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
            measure=measure,
            io_before=io_before,
            origin="local" if remote is None else "cluster",
            fanout=fanout,
        )
        return result

    def _answer_many(
        self, kind: str, queries: List[Trajectory], parameter, measure
    ) -> list:
        """A batch of ``kind`` queries; ``parameter`` is what the batch
        call takes — the aligned threshold list, or the one ``k``."""
        remote = self._remote_executor
        if remote is None and kind == "topk":
            # Nothing to share across adaptive plans: one query at a
            # time, each observing itself.
            return [
                self.topk_search(q, parameter, measure=measure)
                for q in queries
            ]
        started = time.perf_counter()
        if remote is not None:
            search_many = getattr(remote, f"{kind}_search_many")
            results = search_many(queries, parameter, measure=measure)
        else:
            resolved = self._resolve_measure(measure)
            measure = resolved.name
            with self._tracer.span(
                "query.threshold_batch", queries=len(queries), measure=measure
            ) as root:
                results = threshold_search_many(
                    self.store,
                    self.pruner,
                    resolved,
                    queries,
                    parameter,
                    self._tracer,
                )
                root.set_attrs(
                    answers=sum(len(r.answers) for r in results),
                    candidates=sum(r.candidates for r in results),
                )
        elapsed = time.perf_counter() - started
        per_query = elapsed / len(queries) if queries else 0.0
        parameters = (
            parameter if kind == "threshold" else [parameter] * len(queries)
        )
        for query, value, result in zip(queries, parameters, results):
            self._observe_query(
                kind,
                query,
                value,
                per_query,
                result,
                measure=measure,
                origin="local" if remote is None else "cluster",
            )
        return results

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
            f"(distance-pruned: {plan.elements_pruned_distance}, "
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
    def save(self, directory: str, compact: bool = False) -> None:
        """Snapshot the engine's store into ``directory`` (plus the
        heatmap + workload log when storage telemetry is on).

        ``compact=True`` writes regions as compressed mmap segments."""
        self.store.save(directory, compact=compact)
        from repro.obs.workload_log import save_observability

        save_observability(self, directory)

    @classmethod
    def load(cls, directory: str) -> "TraSS":
        """Restore an engine from a :meth:`save` snapshot."""
        store = TrajectoryStore.load(directory)
        engine = cls.__new__(cls)
        engine.config = store.config
        engine.store = store
        engine.pruner = GlobalPruner(
            store.index,
            store.config.max_planned_elements,
            plan_cache_size=store.config.plan_cache_size,
            metrics=store.metrics,
            range_merge_gap=store.config.range_merge_gap,
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
            "slow_queries": self.slow_query_log.to_json(),
            "storage": self._storage_stats(),
        }

    def _storage_stats(self) -> Dict[str, object]:
        from repro.obs.storage_stats import collect_storage_stats

        return collect_storage_stats(self)
