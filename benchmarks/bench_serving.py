"""Serving-tier benchmark: scatter-gather scaling, chaos, admission.

Four drills over the lorry-like dataset, every one of them asserting
bit-identical answers against the single-process engine (the serving
tier is an availability/latency layer, never an approximation):

* **scaling** — the same batched threshold workload through a 1-shard
  and a 4-shard cluster.  On a >= 4-CPU host the 4-shard run must
  reach >= 2.5x the 1-shard throughput (the CI gate); on smaller hosts
  the ratio is reported but not enforced.
* **chaos** — SIGKILL one replica mid-workload (replication=2): zero
  queries lost, answers exact.
* **degraded** — kill the only replica of a partition
  (replication=1, no restarts): partial answers must report *exactly*
  the row-key ranges the dead partition would have scanned.
* **admission** — flood at 2x a tenant's capacity: exactly the excess
  is shed, every rejection a typed ``OverloadedError``.

A JSON report is printed and, when ``REPRO_BENCH_JSON`` names a file,
appended there (the CI job uploads it as ``BENCH_serving.json``).
"""

import json
import os
import threading
import time

from repro.bench.reporting import print_table
from repro.exceptions import OverloadedError
from repro.serve import AdmissionController, ServingCluster

#: eps values for the serving workload (a subset of Figure 9's sweep;
#: two passes give the pipelined FIFOs enough work to overlap).
SERVING_EPS = (0.005, 0.01)


def _workload(cluster_or_engine, queries):
    """Run the batched threshold workload; returns (seconds, answers)."""
    answers = {}
    started = time.perf_counter()
    for eps in SERVING_EPS:
        results = cluster_or_engine.threshold_search_many(queries, eps)
        for i, result in enumerate(results):
            answers[(i, eps)] = sorted(result.answers.items())
    return time.perf_counter() - started, answers


def test_serving_scaling_and_exactness(lorry_engine, lorry_queries):
    engine = lorry_engine
    _, expected = _workload(engine, lorry_queries)
    n_queries = len(lorry_queries) * len(SERVING_EPS)

    rows = []
    report = {"scaling": [], "queries": n_queries}
    seconds_by_partitions = {}
    for partitions in (1, 4):
        with ServingCluster.from_engine(engine, partitions=partitions) as c:
            _workload(c, lorry_queries[:2])  # warm the worker FIFOs
            seconds, answers = _workload(c, lorry_queries)
            stats = c.stats()
        assert answers == expected, (
            f"{partitions}-shard cluster diverged from the "
            "single-process engine"
        )
        assert stats["counters"]["worker_errors"] == 0
        seconds_by_partitions[partitions] = seconds
        rows.append([partitions, seconds * 1000, n_queries / seconds])
        report["scaling"].append(
            {
                "partitions": partitions,
                "seconds": seconds,
                "queries_per_second": n_queries / seconds,
            }
        )

    ratio = seconds_by_partitions[1] / seconds_by_partitions[4]
    report["throughput_ratio_4_vs_1"] = ratio
    report["cpu_count"] = os.cpu_count()
    print_table(
        ["shard workers", "total ms", "q/s"],
        rows,
        f"Serving tier: batched threshold workload "
        f"({n_queries} queries, exact on every run); "
        f"4-shard/1-shard throughput ratio {ratio:.2f}x",
    )
    if (os.cpu_count() or 1) >= 4:
        assert ratio >= 2.5, (
            "4 shard workers must reach >= 2.5x the 1-shard throughput "
            f"on a >= 4-CPU host, got {ratio:.2f}x"
        )
    _emit_json({"serving_scaling": report})


def test_serving_chaos_sigkill_loses_nothing(lorry_engine, lorry_queries):
    """SIGKILL one replica while the batch is in flight: with a peer
    replica present, zero queries are lost and answers stay exact."""
    engine = lorry_engine
    _, expected = _workload(engine, lorry_queries)

    with ServingCluster.from_engine(
        engine, partitions=2, replication=2
    ) as c:
        # Park replica (0, 0) so the batch lands on it while asleep,
        # then SIGKILL it mid-stall — a deterministic mid-stream death
        # (the in-flight requests hit EOF and fail over to the peer).
        c.stall_replica(0, 0, seconds=0.3)
        killer = threading.Timer(0.1, c.kill_replica, args=(0, 0))
        killer.start()
        try:
            seconds, answers = _workload(c, lorry_queries)
        finally:
            killer.cancel()
        stats = c.stats()

    lost = sum(1 for key in expected if key not in answers)
    mismatched = sum(
        1 for key in expected if answers.get(key) != expected[key]
    )
    print_table(
        ["queries", "lost", "mismatched", "failovers", "restarts", "ms"],
        [
            [
                len(expected),
                lost,
                mismatched,
                stats["counters"]["failovers"],
                stats["worker_restarts"],
                seconds * 1000,
            ]
        ],
        "Serving chaos: SIGKILL one replica mid-workload (replication=2)",
    )
    assert lost == 0
    assert mismatched == 0
    _emit_json(
        {
            "serving_chaos": {
                "queries": len(expected),
                "lost": lost,
                "mismatched": mismatched,
                "failovers": stats["counters"]["failovers"],
                "worker_restarts": stats["worker_restarts"],
            }
        }
    )


def test_serving_degraded_reports_exact_skipped_ranges(
    lorry_engine, lorry_queries
):
    engine = lorry_engine
    query = lorry_queries[0]
    eps = SERVING_EPS[-1]
    with ServingCluster.from_engine(
        engine,
        partitions=2,
        replication=1,
        max_restarts=0,
        max_attempts=1,
        degraded_mode=True,
    ) as c:
        c.kill_replica(0, 0)
        served = c.threshold_search(query, eps)
        plan = c.pruner.prune(query, eps)
        expected_skipped = engine.store.planned_scan_ranges(
            plan.ranges, shards=c.owned_salts(0)
        )
        degraded_queries = c.counters["degraded_queries"]

    local = engine.threshold_search(query, eps)
    assert served.skipped_ranges == expected_skipped
    assert set(served.answers) <= set(local.answers)
    assert all(local.answers[t] == d for t, d in served.answers.items())
    print_table(
        ["skipped ranges", "completeness", "answers (partial/full)"],
        [
            [
                len(served.skipped_ranges),
                served.completeness,
                f"{len(served.answers)}/{len(local.answers)}",
            ]
        ],
        "Serving degraded mode: dead partition, no replica",
    )
    _emit_json(
        {
            "serving_degraded": {
                "skipped_ranges": len(served.skipped_ranges),
                "completeness": served.completeness,
                "partial_answers": len(served.answers),
                "full_answers": len(local.answers),
                "degraded_queries": degraded_queries,
            }
        }
    )


def test_serving_admission_sheds_flood(lorry_engine, lorry_queries):
    """Flood at 2x capacity: the excess is shed with typed rejections,
    admitted requests are answered exactly."""
    engine = lorry_engine
    query = lorry_queries[0]
    eps = SERVING_EPS[0]
    capacity = 8
    flood = 2 * capacity
    # A near-zero refill rate makes the burst the whole capacity, so
    # the flood outcome is deterministic: `capacity` admitted, the
    # rest rejected.
    admission = AdmissionController(
        tenant_rate=1e-9, tenant_burst=float(capacity)
    )
    expected = engine.threshold_search(query, eps).answers
    outcomes = {"admitted": 0, "quota": 0, "queue_depth": 0}
    with ServingCluster.from_engine(
        engine, partitions=2, admission=admission
    ) as c:
        for _ in range(flood):
            try:
                result = c.threshold_search(query, eps)
            except OverloadedError as exc:
                assert exc.reason in ("quota", "queue_depth")
                assert exc.tenant == "default"
                outcomes[exc.reason] += 1
            else:
                assert result.answers == expected
                outcomes["admitted"] += 1
        snapshot = c.admission.snapshot()

    print_table(
        ["flood", "capacity", "admitted", "quota shed", "depth shed"],
        [
            [
                flood,
                capacity,
                outcomes["admitted"],
                outcomes["quota"],
                outcomes["queue_depth"],
            ]
        ],
        "Serving admission: flood at 2x tenant capacity",
    )
    assert outcomes["admitted"] == capacity
    assert outcomes["quota"] == flood - capacity
    assert snapshot["rejected_quota"] == flood - capacity
    assert snapshot["in_flight"] == 0
    _emit_json({"serving_admission": {"flood": flood, **outcomes}})


def _emit_json(report: dict) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True)
    print(payload)
    path = os.environ.get("REPRO_BENCH_JSON")
    if path:
        with open(path, "a") as fh:
            fh.write(payload + "\n")
