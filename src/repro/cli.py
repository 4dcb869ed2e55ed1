"""Command-line interface.

Build a persistent TraSS store from a trajectory CSV and query it::

    python -m repro.cli build  --csv data.csv --store ./store \\
        --bounds 115.8 39.4 117.2 40.6 --resolution 16 --shards 8
    python -m repro.cli info   --store ./store
    python -m repro.cli threshold --store ./store --query-tid taxi42 --eps 0.01
    python -m repro.cli topk      --store ./store --query-tid taxi42 --k 10
    python -m repro.cli query     --store ./store --queries-csv queries.csv \\
        --eps 0.01 --batch
    python -m repro.cli range     --store ./store --window 116.0 39.6 116.5 40.0
    python -m repro.cli explain   --store ./store --query-tid taxi42 --eps 0.01
    python -m repro.cli explain   --store ./store --query-tid taxi42 \\
        --eps 0.01 --analyze
    python -m repro.cli trace     --store ./store --query-tid taxi42 --k 10
    python -m repro.cli stats  --store ./store --cache-mb 64
    python -m repro.cli stats  --store ./store --json
    python -m repro.cli chaos  --queries 10 --seed 7 --unavailable-prob 0.3
    python -m repro.cli heatmap --store ./store
    python -m repro.cli doctor  --store ./store --json
    python -m repro.cli replay  --store ./store
    python -m repro.cli serve  --store ./store --shard-workers 4 \\
        --replication 2 --probes 20 --eps 0.01
    python -m repro.cli query  --store ./store --queries-csv queries.csv \\
        --eps 0.01 --batch --cluster 4 --replication 2

Query commands accept ``--cache-mb`` to override the stored cache
budget (answers are identical at any setting; only speed changes).

The CSV format is the one :mod:`repro.data.io` writes: a ``tid,x,y``
header and one point per row, points of a trajectory consecutive.
Queries take either ``--query-tid`` (a stored trajectory) or
``--query-csv`` (a single-trajectory CSV).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

from repro.core.config import TraSSConfig
from repro.core.engine import TraSS
from repro.data.io import load_csv
from repro.exceptions import ReproError
from repro.geometry.mbr import MBR
from repro.geometry.trajectory import Trajectory
from repro.index.bounds import SpaceBounds
from repro.measures import available_measures


def _build(args: argparse.Namespace) -> int:
    trajectories = load_csv(args.csv)
    if not trajectories:
        print("no trajectories in the CSV", file=sys.stderr)
        return 1
    config = TraSSConfig(
        bounds=SpaceBounds(*args.bounds),
        max_resolution=args.resolution,
        dp_tolerance=args.dp_tolerance,
        shards=args.shards,
        measure_name=args.measure,
    )
    started = time.perf_counter()
    engine = TraSS.build(trajectories, config)
    engine.save(args.store)
    elapsed = time.perf_counter() - started
    print(
        f"indexed {len(engine)} trajectories into {args.store} "
        f"in {elapsed:.2f}s ({engine.store.table.num_regions} region(s))"
    )
    return 0


def _load_engine(args: argparse.Namespace) -> TraSS:
    engine = TraSS.load(args.store)
    engine.configure_execution(cache_mb=getattr(args, "cache_mb", None))
    return engine


def _cluster(engine: TraSS, args: argparse.Namespace, **kwargs):
    """The ``--cluster N`` serving cluster over ``engine``'s dataset,
    unstarted (``kwargs`` go to ``ServingCluster.from_engine``), or
    ``None`` without the flag.  It has the engine's query methods."""
    if not args.cluster:
        return None
    from repro.serve import ServingCluster

    return ServingCluster.from_engine(
        engine,
        partitions=args.cluster,
        replication=args.replication,
        **kwargs,
    )


def _resolve_query(engine: TraSS, args: argparse.Namespace) -> Trajectory:
    if args.query_csv:
        trajectories = load_csv(args.query_csv)
        if len(trajectories) != 1:
            raise ReproError(
                f"--query-csv must hold exactly one trajectory, "
                f"found {len(trajectories)}"
            )
        return trajectories[0]
    if not args.query_tid:
        raise ReproError("provide --query-tid or --query-csv")
    for record in engine.store.all_records():
        if record.tid == args.query_tid:
            return record.as_trajectory()
    raise ReproError(f"trajectory {args.query_tid!r} not found in the store")


def _info(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    stats = engine.stats()
    print(f"store:            {args.store}")
    print(f"trajectories:     {stats['trajectories']}")
    print(f"regions:          {stats['regions']}")
    print(f"distinct values:  {stats['distinct_index_values']}")
    print(f"selectivity:      {stats['selectivity']:.4f}")
    print(f"approx bytes:     {stats['approximate_bytes']}")
    print(f"max resolution:   {engine.config.max_resolution}")
    print(f"shards:           {engine.config.shards}")
    print(f"measure:          {engine.config.measure_name}")
    return 0


def _threshold(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    query = _resolve_query(engine, args)
    result = engine.threshold_search(query, args.eps, measure=args.measure)
    for tid, dist in sorted(result.answers.items(), key=lambda kv: kv[1]):
        print(f"{tid}\t{dist:.6f}")
    print(
        f"# {len(result.answers)} answers, {result.candidates} candidates, "
        f"{result.retrieved_rows} rows scanned, "
        f"{result.total_seconds * 1000:.1f} ms",
        file=sys.stderr,
    )
    return 0


def _topk(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    query = _resolve_query(engine, args)
    result = engine.topk_search(query, args.k, measure=args.measure)
    for dist, tid in result.answers:
        print(f"{tid}\t{dist:.6f}")
    print(
        f"# {result.candidates} candidates, {result.retrieved_rows} rows "
        f"scanned, {result.total_seconds * 1000:.1f} ms",
        file=sys.stderr,
    )
    return 0


def _query(args: argparse.Namespace) -> int:
    """Run a workload of threshold queries, optionally as one batch.

    ``--batch`` plans every query up front and runs one shared scan —
    the one a single query runs — decoding each row once for every
    query that asked for it; answers are identical to the sequential
    mode, only the I/O shrinks (reported on stderr).
    """
    engine = _load_engine(args)
    if args.queries_csv:
        queries = load_csv(args.queries_csv)
    else:
        if not args.query_tid:
            raise ReproError("provide --query-tid (repeatable) or --queries-csv")
        wanted = set(args.query_tid)
        by_tid = {}
        for record in engine.store.all_records():
            if record.tid in wanted:
                by_tid[record.tid] = record.as_trajectory()
        missing = wanted - set(by_tid)
        if missing:
            raise ReproError(f"trajectories not in the store: {sorted(missing)}")
        queries = [by_tid[tid] for tid in args.query_tid]
    if not queries:
        raise ReproError("no queries to run")

    cluster = _cluster(engine, args, hedge_delay_seconds=args.hedge_delay)
    target = engine if cluster is None else cluster
    with cluster or nullcontext():
        before = engine.metrics.snapshot()
        started = time.perf_counter()
        if args.batch:
            results = target.threshold_search_many(
                queries, args.eps, measure=args.measure
            )
        else:
            results = [
                target.threshold_search(q, args.eps, measure=args.measure)
                for q in queries
            ]
        wall = time.perf_counter() - started
        delta = engine.metrics.diff(before)

    for query, result in zip(queries, results):
        for tid, dist in sorted(result.answers.items(), key=lambda kv: kv[1]):
            print(f"{query.tid}\t{tid}\t{dist:.6f}")
    mode = "batch" if args.batch else "sequential"
    if cluster is None:
        io = (
            f"{delta['rows_scanned']} rows scanned, "
            f"{delta['batch_ranges_merged']} ranges merged, "
            f"{delta['batch_rows_shared']} row deliveries shared"
        )
    else:
        # The workers scanned, not this engine, and a worker shares no
        # scan across the queries of a batch.
        mode += f", cluster={args.cluster}x{args.replication}"
        io = f"{sum(r.retrieved_rows for r in results)} rows scanned"
    print(
        f"# {len(queries)} queries ({mode}), "
        f"{sum(len(r.answers) for r in results)} answers, "
        f"{io}, {wall * 1000:.1f} ms",
        file=sys.stderr,
    )
    return 0


def _explain(args: argparse.Namespace) -> int:
    """``explain``: describe the plan; ``explain --analyze``: run the
    query under tracing and report what every phase actually did."""
    engine = _load_engine(args)
    query = _resolve_query(engine, args)
    if not args.analyze:
        if args.eps is None:
            raise ReproError("explain without --analyze requires --eps")
        if args.k is not None:
            raise ReproError("--k requires --analyze (plans are threshold-only)")
        print(engine.explain(query, args.eps))
        return 0
    report = engine.explain_analyze(
        query, eps=args.eps, k=args.k, measure=args.measure
    )
    if args.json:
        import json

        print(
            json.dumps(
                report.to_json(include_events=args.show_events),
                indent=2,
                default=str,
            )
        )
    else:
        print(
            report.render(
                max_children=args.max_children, show_events=args.show_events
            )
        )
    return 0


def _trace(args: argparse.Namespace) -> int:
    """Run one query under tracing and print the raw span tree.

    With ``--cluster N`` the query scatter-gathers through N shard
    workers and the printed tree is the *stitched* cross-process trace:
    coordinator spans with each worker's shipped span subtree grafted
    under its ``serve.partition`` node.
    """
    engine = _load_engine(args)
    query = _resolve_query(engine, args)
    if (args.eps is None) == (args.k is None):
        raise ReproError("provide exactly one of --eps or --k")
    tracer = engine.make_tracer()
    cluster = _cluster(engine, args, tracer=tracer, observability=True)
    target = engine if cluster is None else cluster
    with cluster or engine.traced(tracer):
        if args.eps is not None:
            target.threshold_search(query, args.eps, measure=args.measure)
        else:
            target.topk_search(query, args.k, measure=args.measure)
    root = tracer.traces()[-1]
    if args.json:
        import json

        print(
            json.dumps(
                root.to_dict(include_events=args.show_events),
                indent=2,
                default=str,
            )
        )
    else:
        from repro.obs.tracing import format_span_tree

        print(
            format_span_tree(
                root,
                max_children=args.max_children,
                show_events=args.show_events,
            )
        )
    return 0


def _range(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    window = MBR(*args.window)
    for tid in engine.range_query(window):
        print(tid)
    return 0


def _hit_line(name: str, hits: int, misses: int) -> str:
    total = hits + misses
    rate = f"{hits / total:7.1%}" if total else "    n/a"
    return f"  {name:<14} {rate}  ({hits} hits / {misses} misses)"


def _stats(args: argparse.Namespace) -> int:
    """Report the execution performance layer: worker count, cache hit
    rates and per-phase timings from a small probe workload.

    Each probe query runs twice — the first pass fills the block,
    record and plan caches, the second shows their steady-state hit
    rates — so the numbers reflect a warmed store, the regime the
    caches exist for.

    ``--cluster N`` routes the probe workload through N shard workers
    with cluster observability on, so the JSON/Prometheus output
    describes the whole cluster (per-worker IO, SLO histograms, error
    budget) in one dump.  ``--prometheus`` prints the text exposition
    format instead of the human report.
    """
    engine = _load_engine(args)
    cfg = engine.config
    cluster = _cluster(engine, args, observability=True)
    with cluster or nullcontext():
        return _stats_report(engine, cluster, args, cfg)


def _probe_counters(engine, cluster) -> Dict[str, int]:
    """The ``IOMetrics`` totals a probe moves: the engine's own, or the
    cluster workers' (who scan) with the coordinator's plan cache (it
    plans)."""
    if cluster is None:
        return engine.metrics.snapshot()
    counters = cluster.io_totals()
    plans = cluster.pruner.metrics
    counters["plan_cache_hits"] = plans.plan_cache_hits
    counters["plan_cache_misses"] = plans.plan_cache_misses
    return counters


def _stats_report(engine, cluster, args, cfg) -> int:
    target = engine if cluster is None else cluster
    if args.prometheus:
        from repro.obs.registry import (
            update_registry_from_cluster,
            update_registry_from_engine,
        )

        _run_probe_workload(target, engine, args.probes, args.eps)
        update_registry_from_engine(engine.registry, engine)
        if cluster is not None:
            update_registry_from_cluster(engine.registry, cluster)
        print(engine.registry.to_prometheus())
        return 0
    if args.json:
        import json

        _run_probe_workload(target, engine, args.probes, args.eps)
        payload = engine.stats()
        payload["config"] = {
            "cache_mb": cfg.cache_mb,
            "plan_cache_size": cfg.plan_cache_size,
            "storage_telemetry": cfg.storage_telemetry,
        }
        if cluster is not None:
            payload["cluster"] = cluster.stats()
        print(json.dumps(payload, indent=2, default=str))
        return 0
    print(f"store:            {args.store}")
    print(f"cache budget:     {cfg.cache_mb:g} MiB")
    print(f"plan cache size:  {cfg.plan_cache_size}")

    queries = _probe_queries(engine, args.probes)
    if not queries:
        print("no stored trajectories; skipping probe workload")
        return 0

    pruning = scan = refine = 0.0
    answers = faults = retries = skipped = 0
    before = _probe_counters(engine, cluster)
    started = time.perf_counter()
    for _pass in range(2):
        for q in queries:
            result = target.threshold_search(q, args.eps)
            pruning += result.pruning_seconds
            scan += result.scan_seconds
            refine += result.refine_seconds
            answers += len(result.answers)
            if result.resilience is not None:
                faults += result.resilience.faults_encountered
                retries += result.resilience.retries
                skipped += len(result.resilience.skipped_ranges)
    wall = time.perf_counter() - started
    after = _probe_counters(engine, cluster)
    delta = {name: after.get(name, 0) - before.get(name, 0) for name in after}

    print(
        f"probe workload:   {len(queries)} threshold queries x 2 passes "
        f"(eps={args.eps:g}), {answers} answers, "
        f"{delta['rows_scanned']} rows scanned"
    )
    print("phase seconds:")
    print(f"  pruning        {pruning:8.4f}")
    print(f"  scan           {scan:8.4f}")
    print(f"  refine         {refine:8.4f}")
    print(f"  total wall     {wall:8.4f}")
    print("cache hit rates (both passes):")
    print(
        _hit_line(
            "block cache", delta["block_cache_hits"], delta["block_cache_misses"]
        )
    )
    print(
        _hit_line(
            "record cache",
            delta["record_cache_hits"],
            delta["record_cache_misses"],
        )
    )
    print(
        _hit_line(
            "plan cache", delta["plan_cache_hits"], delta["plan_cache_misses"]
        )
    )
    if cluster is not None:
        # The workers scan: their breakers and segments live in other
        # processes, so the report reads the probes' own scan reports.
        print("resilience (probe scan reports):")
        print(
            f"  probe scans    {faults} faults encountered, "
            f"{retries} retries, {skipped} ranges skipped"
        )
        return 0
    breaker = engine.store.executor.breaker.snapshot()
    io = engine.metrics.snapshot()
    print("resilience:")
    print(
        f"  breaker        {breaker['open_regions']} open / "
        f"{breaker['tracked_regions']} tracked region(s), "
        f"{breaker['trips']} trip(s)"
    )
    print(
        f"  fault counters {io['faults_injected']} faults injected, "
        f"{io['retries']} retries, {io['ranges_skipped']} ranges skipped"
    )
    from repro.obs.storage_stats import collect_storage_stats

    segments = collect_storage_stats(engine)["segments"]
    if segments["count"]:
        print("compact segments:")
        print(
            f"  {segments['count']} segment(s): "
            f"{segments['file_bytes']} bytes on disk for "
            f"{segments['logical_bytes']} logical bytes "
            f"({segments['compression_ratio']:.1f}x compression), "
            f"{segments['blocks_materialized']}/{segments['blocks']} "
            "block(s) materialised"
        )
    return 0


def _heatmap(args: argparse.Namespace) -> int:
    """Render the key-space heatmap (scan traffic over the salted
    row-key space, decayed toward the recent workload).

    ``--probe`` first runs a small probe workload so a freshly loaded
    store has heat to show; without it the command renders whatever the
    persisted TELEMETRY.json carried."""
    engine = _load_engine(args)
    heatmap = engine.heatmap
    if heatmap is None:
        print(
            "storage telemetry is disabled for this store "
            "(config.storage_telemetry = false)",
            file=sys.stderr,
        )
        return 1
    if args.probe:
        _run_probe_workload(engine, engine, args.probe, args.eps)
    from repro.obs.heatmap import heatmap_json, render_heatmap

    if args.json:
        import json

        print(json.dumps(heatmap_json(heatmap, engine.store.table), indent=2))
    else:
        shards = engine.config.shards
        print(render_heatmap(heatmap, engine.store.table, shards))
    return 0


def _probe_queries(engine: TraSS, probes: int) -> List[Trajectory]:
    """The first ``probes`` stored trajectories, as queries."""
    queries = []
    for record in engine.store.all_records():
        queries.append(record.as_trajectory())
        if len(queries) >= probes:
            break
    return queries


def _run_probe_workload(target, engine: TraSS, probes: int, eps: float):
    """Answer threshold probes drawn from ``engine``'s store on
    ``target``: the engine itself, or a serving cluster over it."""
    for q in _probe_queries(engine, probes):
        target.threshold_search(q, eps)


def _doctor(args: argparse.Namespace) -> int:
    """Run the tuning advisor and print ranked, evidence-cited
    recommendations."""
    engine = _load_engine(args)
    if args.probe:
        _run_probe_workload(engine, engine, args.probe, args.eps)
    from repro.obs.advisor import render_report, report_json

    recommendations = engine.doctor()
    if args.json:
        import json

        print(json.dumps(report_json(recommendations), indent=2))
    else:
        print(render_report(recommendations))
    return 0


def _replay(args: argparse.Namespace) -> int:
    """Re-execute the captured workload and verify answer digests.

    Exit 0 when every replayed query reproduced its recorded answers
    byte-identically, 1 on any divergence."""
    engine = _load_engine(args)
    recorder = engine.workload_recorder
    if recorder is None:
        print(
            "workload recording is disabled for this store "
            "(config.storage_telemetry = false)",
            file=sys.stderr,
        )
        return 1
    if len(recorder) == 0:
        print("no recorded workload to replay", file=sys.stderr)
        return 1
    report = engine.replay()
    if args.json:
        import json

        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _chaos(args: argparse.Namespace) -> int:
    """Run a seeded chaos schedule against a workload and report.

    Every query runs twice — fault-free, then under the injector — and
    the report states whether retries masked every transient fault
    (answer parity) or, in degraded mode, how complete the partial
    answers were and which key ranges were skipped.
    """
    from repro.kvstore.faults import FaultInjector, FaultSchedule

    if args.store:
        engine = TraSS.load(args.store)
        # The stored config wins except for the resilience knobs the
        # chaos run is explicitly exercising.
        executor = engine.store.executor
        executor.degraded_mode = args.degraded
        executor.deadline_seconds = args.deadline
        executor.policy = dataclasses.replace(
            executor.policy, max_attempts=args.retry_attempts
        )
        trajectories = [r.as_trajectory() for r in engine.store.all_records()]
    else:
        from repro.data.generators import TDRIVE_BOUNDS, tdrive_like

        trajectories = tdrive_like(args.trajectories, seed=args.seed)
        config = TraSSConfig(
            bounds=TDRIVE_BOUNDS,
            max_resolution=12,
            dp_tolerance=0.005,
            shards=args.shards,
            degraded_mode=args.degraded,
            scan_deadline_seconds=args.deadline,
            retry_max_attempts=args.retry_attempts,
        )
        engine = TraSS.build(trajectories, config)
    if not trajectories:
        print("no trajectories to run chaos against", file=sys.stderr)
        return 1
    queries = trajectories[: args.queries]

    # Fault-free baseline.
    baseline = []
    for q in queries:
        t = engine.threshold_search(q, args.eps)
        k = engine.topk_search(q, args.k)
        baseline.append((set(t.answers), [tid for _, tid in k.answers]))

    schedule = FaultSchedule(
        seed=args.seed,
        region_unavailable_prob=args.unavailable_prob,
        max_consecutive_failures=args.max_consecutive,
        slow_region_prob=args.slow_prob,
        slow_region_seconds=args.slow_seconds,
        split_prob=args.split_prob,
        compact_prob=args.compact_prob,
    )
    injector = FaultInjector(schedule)
    engine.install_fault_injector(injector)
    before = engine.metrics.snapshot()
    matches = 0
    completenesses: List[float] = []
    skipped_total = 0
    try:
        for (base_threshold, base_topk), q in zip(baseline, queries):
            t = engine.threshold_search(q, args.eps)
            k = engine.topk_search(q, args.k)
            completenesses.extend([t.completeness, k.completeness])
            skipped_total += len(t.skipped_ranges) + len(k.skipped_ranges)
            if (
                set(t.answers) == base_threshold
                and [tid for _, tid in k.answers] == base_topk
            ):
                matches += 1
        # Snapshot before detaching: removing the injector resets the
        # executor's breaker state for the next (fault-free) epoch.
        breaker_state = engine.store.executor.breaker.snapshot()
    finally:
        engine.install_fault_injector(None)
    delta = engine.metrics.diff(before)
    injected = injector.summary()

    min_completeness = min(completenesses)
    mean_completeness = sum(completenesses) / len(completenesses)
    print(f"chaos report (seed={args.seed})")
    print(
        f"  workload:        {len(trajectories)} trajectories, "
        f"{len(queries)} threshold + {len(queries)} top-k queries"
    )
    print(
        f"  faults injected: {injected['region_outages']} region outages, "
        f"{injected['slow_regions']} slow regions, "
        f"{injected['forced_splits']} forced splits, "
        f"{injected['forced_compactions']} forced compactions"
    )
    print(
        f"  retries:         {delta['retries']} "
        f"(virtual latency {injected['virtual_latency_seconds']:.2f}s)"
    )
    print(f"  breaker trips:   {delta['breaker_trips']}")
    print(
        f"  breaker state:   {breaker_state['open_regions']} open / "
        f"{breaker_state['tracked_regions']} tracked region(s) at run end"
    )
    print(
        f"  fault counters:  {delta['faults_injected']} injected, "
        f"{delta['ranges_skipped']} ranges skipped"
    )
    print(f"  degraded mode:   {'on' if args.degraded else 'off'}")
    print(f"  skipped ranges:  {skipped_total}")
    print(
        f"  completeness:    min {min_completeness:.3f} / "
        f"mean {mean_completeness:.3f}"
    )
    print(
        f"  answer parity:   {matches}/{len(queries)} queries identical "
        f"to the fault-free run"
    )
    if args.degraded:
        print("DEGRADED RUN: partial answers above are annotated, not lost")
        return 0
    if matches == len(queries):
        print("RESILIENT: every transient fault was masked by retries")
        return 0
    print("NOT RESILIENT: some faulted answers diverged", file=sys.stderr)
    return 1


def _serve(args: argparse.Namespace) -> int:
    """Start a shard-worker cluster over the store and drive a probe
    workload through it, verifying every answer against the
    single-process engine.

    Exit 0 when all served answers match, 1 on any divergence, 2 on a
    cluster error — so the command doubles as a serving-tier smoke
    test (the CI chaos drill builds on the same machinery).
    """
    from repro.serve import AdmissionController, ServingCluster

    if args.store:
        engine = TraSS.load(args.store)
        trajectories = [r.as_trajectory() for r in engine.store.all_records()]
    else:
        from repro.data.generators import TDRIVE_BOUNDS, tdrive_like

        trajectories = tdrive_like(args.trajectories, seed=args.seed)
        config = TraSSConfig(
            bounds=TDRIVE_BOUNDS,
            max_resolution=12,
            dp_tolerance=0.005,
            shards=args.shards,
        )
        engine = TraSS.build(trajectories, config)
    if not trajectories:
        print("no trajectories to serve", file=sys.stderr)
        return 1
    queries = trajectories[: args.probes]

    admission = None
    if args.tenant_rate is not None or args.max_in_flight is not None:
        admission = AdmissionController(
            tenant_rate=args.tenant_rate,
            tenant_burst=(
                args.tenant_burst
                if args.tenant_burst is not None
                else args.tenant_rate
            ),
            max_in_flight=args.max_in_flight,
        )
    cluster = ServingCluster.from_engine(
        engine,
        partitions=args.shard_workers,
        replication=args.replication,
        request_timeout=args.timeout,
        hedge_delay_seconds=args.hedge_delay,
        degraded_mode=args.degraded,
        admission=admission,
        observability=args.obs,
    )
    started = time.perf_counter()
    with cluster:
        startup = time.perf_counter() - started
        run_started = time.perf_counter()
        served = cluster.threshold_search_many(queries, args.eps)
        wall = time.perf_counter() - run_started
        stats = cluster.stats()
    expected = engine.threshold_search_many(queries, args.eps)
    matches = sum(
        1 for s, e in zip(served, expected) if s.answers == e.answers
    )

    if args.json:
        import json

        payload = {
            "shard_workers": args.shard_workers,
            "replication": args.replication,
            "probes": len(queries),
            "eps": args.eps,
            "answers": sum(len(r.answers) for r in served),
            "matches": matches,
            "startup_seconds": startup,
            "workload_seconds": wall,
            "stats": stats,
        }
        if args.obs:
            obs_snapshot = stats.get("observability", {})
            payload["slo"] = obs_snapshot.get("slo", {})
        print(json.dumps(payload, indent=2, default=str))
        return 0 if matches == len(queries) else 1

    counters = stats["counters"]
    print(
        f"serving cluster: {args.shard_workers} shard worker(s) x "
        f"{args.replication} replica(s), started in {startup:.2f}s"
    )
    print(
        f"  workload:      {len(queries)} threshold probes (eps={args.eps:g}) "
        f"in {wall * 1000:.1f} ms "
        f"({len(queries) / wall:.1f} queries/s)"
        if wall > 0
        else f"  workload:      {len(queries)} threshold probes"
    )
    print(
        f"  answers:       {sum(len(r.answers) for r in served)} "
        f"({matches}/{len(queries)} probes identical to the "
        f"single-process engine)"
    )
    print(
        f"  resilience:    {counters['failovers']} failover(s), "
        f"{counters['hedges']} hedge(s) ({counters['hedge_wins']} won), "
        f"{stats['worker_restarts']} worker restart(s), "
        f"{counters['degraded_queries']} degraded quer(y/ies)"
    )
    admission_stats = stats["admission"]
    print(
        f"  admission:     {admission_stats['admitted']} admitted, "
        f"{admission_stats['rejected_quota']} rejected (quota), "
        f"{admission_stats['rejected_queue_depth']} rejected (queue depth)"
    )
    if args.obs:
        slo = stats.get("observability", {}).get("slo", {})
        query_slo = slo.get("summaries", {}).get("query", {})
        budget = slo.get("error_budget", {})
        print(
            f"  slo:           query p50 "
            f"{query_slo.get('p50', 0.0) * 1000:.1f} ms, p95 "
            f"{query_slo.get('p95', 0.0) * 1000:.1f} ms, p99 "
            f"{query_slo.get('p99', 0.0) * 1000:.1f} ms; error-budget "
            f"burn {budget.get('burn_rate', 0.0):.2f}x"
        )
    if matches == len(queries):
        print("EXACT: served answers match the single-process engine")
        return 0
    print("DIVERGED: some served answers differ", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="TraSS trajectory similarity search (ICDE 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = TraSSConfig()
    build = sub.add_parser("build", help="index a trajectory CSV into a store")
    build.add_argument("--csv", required=True, help="tid,x,y point CSV")
    build.add_argument("--store", required=True, help="output directory")
    build.add_argument(
        "--bounds",
        nargs=4,
        type=float,
        default=list(dataclasses.astuple(defaults.bounds)),
        metavar=("MINX", "MINY", "MAXX", "MAXY"),
        help="index space extent (default: whole earth)",
    )
    build.add_argument(
        "--resolution", type=int, default=defaults.max_resolution
    )
    build.add_argument(
        "--dp-tolerance", type=float, default=defaults.dp_tolerance
    )
    build.add_argument("--shards", type=int, default=defaults.shards)
    build.add_argument(
        "--measure",
        default=defaults.measure_name,
        choices=available_measures(),
    )
    build.set_defaults(func=_build)

    info = sub.add_parser("info", help="store statistics")
    info.add_argument("--store", required=True)
    info.set_defaults(func=_info)

    def add_perf_args(p):
        p.add_argument(
            "--cache-mb",
            type=float,
            default=None,
            help="scan-block + decoded-record cache budget in MiB "
            "(overrides the stored config; 0 disables)",
        )

    def add_query_args(p):
        p.add_argument("--store", required=True)
        p.add_argument("--query-tid", help="query by stored trajectory id")
        p.add_argument("--query-csv", help="query from a one-trajectory CSV")
        p.add_argument(
            "--measure", default=None, choices=available_measures()
        )
        add_perf_args(p)

    threshold = sub.add_parser("threshold", help="threshold similarity search")
    add_query_args(threshold)
    threshold.add_argument("--eps", type=float, required=True)
    threshold.set_defaults(func=_threshold)

    topk = sub.add_parser("topk", help="top-k similarity search")
    add_query_args(topk)
    topk.add_argument("--k", type=int, required=True)
    topk.set_defaults(func=_topk)

    query = sub.add_parser(
        "query",
        help="run a threshold-query workload; --batch shares one "
        "deduplicated scan across all queries",
    )
    query.add_argument("--store", required=True)
    query.add_argument(
        "--query-tid",
        action="append",
        help="stored trajectory id to query with (repeatable)",
    )
    query.add_argument(
        "--queries-csv",
        help="CSV holding the query trajectories (tid,x,y rows)",
    )
    query.add_argument("--eps", type=float, required=True)
    query.add_argument("--measure", default=None, choices=available_measures())
    query.add_argument(
        "--batch",
        action="store_true",
        help="coalesce all query plans into one shared scan "
        "(identical answers, fewer rows scanned)",
    )
    query.add_argument(
        "--cluster",
        type=int,
        default=None,
        metavar="N",
        help="serve the workload from N shard-worker processes "
        "(scatter-gather; answers identical to the local engine)",
    )
    query.add_argument(
        "--replication",
        type=int,
        default=1,
        help="replicas per shard worker (failover targets; with --cluster)",
    )
    query.add_argument(
        "--hedge-delay",
        type=float,
        default=None,
        help="send a hedged copy to a second replica after this many "
        "seconds without a reply (with --cluster)",
    )
    add_perf_args(query)
    query.set_defaults(func=_query)

    def add_trace_args(p):
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )
        p.add_argument(
            "--show-events",
            action="store_true",
            help="include span events (per-lemma filter decisions)",
        )
        p.add_argument(
            "--max-children",
            type=int,
            default=16,
            help="rendered child spans per node before elision",
        )

    explain = sub.add_parser(
        "explain",
        help="describe a query plan; --analyze runs the query under "
        "tracing and reports per-phase measurements",
    )
    add_query_args(explain)
    add_trace_args(explain)
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="EXPLAIN ANALYZE: execute the query and tie each phase to "
        "its measured counts and durations",
    )
    explain.set_defaults(func=_explain)

    trace = sub.add_parser(
        "trace", help="run one query under tracing and print the span tree"
    )
    add_query_args(trace)
    add_trace_args(trace)
    trace.add_argument(
        "--cluster",
        type=int,
        default=None,
        metavar="N",
        help="route the query through N shard workers and stitch the "
        "coordinator and worker spans into one cross-process trace",
    )
    trace.add_argument(
        "--replication",
        type=int,
        default=1,
        help="replicas per shard worker (with --cluster)",
    )
    trace.set_defaults(func=_trace)

    range_ = sub.add_parser("range", help="spatial range query")
    range_.add_argument("--store", required=True)
    range_.add_argument(
        "--window",
        nargs=4,
        type=float,
        required=True,
        metavar=("MINX", "MINY", "MAXX", "MAXY"),
    )
    range_.set_defaults(func=_range)

    stats = sub.add_parser(
        "stats",
        help="execution-layer report: workers, cache hit rates, "
        "per-phase probe timings",
    )
    stats.add_argument("--store", required=True)
    stats.add_argument(
        "--probes",
        type=int,
        default=5,
        help="stored trajectories used as probe queries (each runs "
        "twice: cold then warm)",
    )
    stats.add_argument("--eps", type=float, default=0.01)
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the full stats bundle (including the storage "
        "section) as JSON",
    )
    stats.add_argument(
        "--cluster",
        type=int,
        default=None,
        metavar="N",
        help="route the probe workload through N shard workers and "
        "include the cluster-wide observability snapshot",
    )
    stats.add_argument(
        "--replication",
        type=int,
        default=1,
        help="replicas per shard worker (with --cluster)",
    )
    stats.add_argument(
        "--prometheus",
        action="store_true",
        help="print the Prometheus text exposition instead of the "
        "human report (covers the whole cluster with --cluster)",
    )
    add_perf_args(stats)
    stats.set_defaults(func=_stats)

    heatmap = sub.add_parser(
        "heatmap",
        help="render scan traffic over the salted row-key space "
        "(ASCII, or --json)",
    )
    heatmap.add_argument("--store", required=True)
    heatmap.add_argument(
        "--probe",
        type=int,
        default=0,
        help="run this many probe threshold queries first so a fresh "
        "store has heat to show",
    )
    heatmap.add_argument("--eps", type=float, default=0.01)
    heatmap.add_argument("--json", action="store_true")
    add_perf_args(heatmap)
    heatmap.set_defaults(func=_heatmap)

    doctor = sub.add_parser(
        "doctor",
        help="tuning advisor: ranked recommendations citing the metric "
        "values that triggered them",
    )
    doctor.add_argument("--store", required=True)
    doctor.add_argument(
        "--probe",
        type=int,
        default=0,
        help="run this many probe threshold queries before diagnosing",
    )
    doctor.add_argument("--eps", type=float, default=0.01)
    doctor.add_argument("--json", action="store_true")
    add_perf_args(doctor)
    doctor.set_defaults(func=_doctor)

    replay = sub.add_parser(
        "replay",
        help="re-execute the recorded workload and verify every answer "
        "digest (exit 1 on divergence)",
    )
    replay.add_argument("--store", required=True)
    replay.add_argument("--json", action="store_true")
    add_perf_args(replay)
    replay.set_defaults(func=_replay)

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection schedule and report resilience",
    )
    chaos.add_argument(
        "--store",
        help="existing store to attack (default: a synthetic workload)",
    )
    chaos.add_argument(
        "--trajectories",
        type=int,
        default=150,
        help="synthetic workload size when no --store is given",
    )
    chaos.add_argument("--queries", type=int, default=10)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--shards", type=int, default=4)
    chaos.add_argument("--eps", type=float, default=0.02)
    chaos.add_argument("--k", type=int, default=5)
    chaos.add_argument(
        "--unavailable-prob",
        type=float,
        default=0.25,
        help="per region-scan probability of a transient outage",
    )
    chaos.add_argument(
        "--max-consecutive",
        type=int,
        default=2,
        help="cap on back-to-back failures of one region",
    )
    chaos.add_argument("--slow-prob", type=float, default=0.1)
    chaos.add_argument(
        "--slow-seconds",
        type=float,
        default=0.05,
        help="virtual latency charged per slow region scan",
    )
    chaos.add_argument("--split-prob", type=float, default=0.02)
    chaos.add_argument("--compact-prob", type=float, default=0.02)
    chaos.add_argument(
        "--retry-attempts",
        type=int,
        default=6,
        help="scan attempts per range (must exceed --max-consecutive "
        "for full masking)",
    )
    chaos.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-query scan budget in seconds (virtual latency counts)",
    )
    chaos.add_argument(
        "--degraded",
        action="store_true",
        help="return partial results instead of failing exhausted ranges",
    )
    chaos.set_defaults(func=_chaos)

    serve = sub.add_parser(
        "serve",
        help="start a shard-worker cluster and verify served answers "
        "against the single-process engine",
    )
    serve.add_argument(
        "--store",
        help="existing store to serve (default: a synthetic workload)",
    )
    serve.add_argument(
        "--trajectories",
        type=int,
        default=150,
        help="synthetic workload size when no --store is given",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--shards",
        type=int,
        default=4,
        help="row-key salt shards for the synthetic store",
    )
    serve.add_argument(
        "--shard-workers",
        type=int,
        default=2,
        help="worker processes, each owning a disjoint salt slice",
    )
    serve.add_argument(
        "--replication",
        type=int,
        default=1,
        help="replicas per shard worker (failover targets)",
    )
    serve.add_argument(
        "--probes",
        type=int,
        default=10,
        help="stored trajectories used as threshold probe queries",
    )
    serve.add_argument("--eps", type=float, default=0.01)
    serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request timeout before failover to another replica",
    )
    serve.add_argument(
        "--hedge-delay",
        type=float,
        default=None,
        help="send a hedged copy to a second replica after this many "
        "seconds without a reply",
    )
    serve.add_argument(
        "--degraded",
        action="store_true",
        help="return partial answers (with exact skipped-range "
        "accounting) when a whole partition is unreachable",
    )
    serve.add_argument(
        "--obs",
        action="store_true",
        help="enable cluster observability: SLO histograms and "
        "per-worker metrics aggregation",
    )
    serve.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        help="admission control: sustained queries/second per tenant",
    )
    serve.add_argument(
        "--tenant-burst",
        type=float,
        default=None,
        help="admission control: per-tenant burst size "
        "(default: --tenant-rate)",
    )
    serve.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help="admission control: shed load beyond this many "
        "concurrent queries",
    )
    serve.add_argument("--json", action="store_true")
    serve.set_defaults(func=_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, ValueError) as exc:
        # ValueError covers bad schedule/config parameters (e.g. a
        # probability outside [0, 1]) so they fail like other CLI
        # errors instead of with a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
