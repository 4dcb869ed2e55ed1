"""Cluster-wide observability: cross-process trace stitching, worker
metrics aggregation and latency SLOs.

The standing invariant pinned throughout: observability is a pure
read-model.  A cluster built with ``observability=True`` (and/or a
recording tracer) returns byte-identical answers, candidate counts and
resilience accounting to one built without — including under stalls,
hedging and failover — and the aggregated worker IO matches the
single-process engine field-for-field (planning excepted: the
coordinator plans once, so workers never touch the plan cache).
"""

import random
import time

import pytest

from repro import SpaceBounds, TraSS, TraSSConfig, Trajectory
from repro.obs import Tracer, parse_prometheus
from repro.obs.registry import (
    MetricsRegistry,
    update_registry_from_cluster,
    update_registry_from_engine,
)
from repro.obs.tracing import NULL_TRACER
from repro.serve import ClusterObservability, ServingCluster

pytestmark = pytest.mark.serving

BEIJING = SpaceBounds(116.0, 39.5, 117.0, 40.5)
EPS = 0.01


def _walks(n, seed=11):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x = rng.uniform(116.1, 116.9)
        y = rng.uniform(39.6, 40.4)
        points = [(x, y)]
        for _ in range(rng.randint(5, 30)):
            x += rng.uniform(-0.005, 0.005)
            y += rng.uniform(-0.005, 0.005)
            points.append((x, y))
        out.append(Trajectory(f"t{i}", points))
    return out


@pytest.fixture(scope="module")
def dataset():
    return _walks(60)


@pytest.fixture(scope="module")
def engine(dataset):
    config = TraSSConfig(
        bounds=BEIJING,
        max_resolution=12,
        dp_tolerance=0.002,
        shards=4,
        storage_telemetry=True,
    )
    return TraSS.build(dataset, config)


@pytest.fixture(scope="module")
def obs_cluster(engine):
    with ServingCluster.from_engine(
        engine, partitions=2, observability=True
    ) as c:
        # A generous objective so every test query counts as SLO-good
        # on any machine; budget-burn arithmetic is unit-tested
        # separately.
        c.obs.slo_objective_seconds = 60.0
        yield c


@pytest.fixture(scope="module")
def plain_cluster(engine):
    with ServingCluster.from_engine(engine, partitions=2) as c:
        yield c


# ----------------------------------------------------------------------
# Trace propagation: one stitched tree across the process boundary
# ----------------------------------------------------------------------
class TestStitchedTrace:
    def test_single_query_stitches_worker_spans(self, obs_cluster, dataset):
        tracer = Tracer()
        obs_cluster.tracer = tracer
        try:
            obs_cluster.threshold_search(dataset[0], EPS)
        finally:
            obs_cluster.tracer = NULL_TRACER
        root = tracer.traces()[-1]
        assert root.name == "serve.query"
        partitions = root.find("serve.partition")
        assert len(partitions) == obs_cluster.partitions
        for span in partitions:
            assert span.attrs["replica"] == 0  # healthy: primary served
            handles = span.find("worker.handle")
            # The grafted subtree is the worker's own recording, shipped
            # back on the Reply and re-rooted under the partition span.
            assert len(handles) >= 1
            assert handles[0].duration >= 0.0

    def test_batch_query_stitches_per_partition(self, obs_cluster, dataset):
        tracer = Tracer()
        obs_cluster.tracer = tracer
        try:
            obs_cluster.threshold_search_many(dataset[:3], EPS)
        finally:
            obs_cluster.tracer = NULL_TRACER
        root = tracer.traces()[-1]
        assert root.name == "serve.query_batch"
        partitions = root.find("serve.partition")
        assert len(partitions) == obs_cluster.partitions
        for span in partitions:
            assert span.attrs["requests"] == 3
            assert span.attrs["replica"] == 0
            assert span.attrs["hedged"] is False
            assert len(span.find("worker.handle")) == 3


# ----------------------------------------------------------------------
# The invariant: observability never changes answers
# ----------------------------------------------------------------------
class TestByteIdentity:
    def _assert_same(self, a, b):
        assert a.answers == b.answers
        assert a.candidates == b.candidates
        assert a.retrieved_rows == b.retrieved_rows
        assert a.skipped_ranges == b.skipped_ranges
        assert a.completeness == b.completeness
        assert a.resilience.ranges_total == b.resilience.ranges_total

    def test_threshold_and_topk_identical(
        self, engine, dataset, obs_cluster, plain_cluster
    ):
        tracer = Tracer()
        obs_cluster.tracer = tracer
        try:
            for q in dataset[:3]:
                observed = obs_cluster.threshold_search(q, EPS)
                plain = plain_cluster.threshold_search(q, EPS)
                local = engine.threshold_search(q, EPS)
                self._assert_same(observed, plain)
                assert observed.answers == local.answers
            obs_topk = obs_cluster.topk_search(dataset[0], 5)
            plain_topk = plain_cluster.topk_search(dataset[0], 5)
            assert obs_topk.answers == plain_topk.answers
        finally:
            obs_cluster.tracer = NULL_TRACER

    def test_batch_identical(self, dataset, obs_cluster, plain_cluster):
        queries = dataset[:6]
        observed = obs_cluster.threshold_search_many(queries, EPS)
        plain = plain_cluster.threshold_search_many(queries, EPS)
        assert [r.answers for r in observed] == [r.answers for r in plain]
        assert [r.candidates for r in observed] == [
            r.candidates for r in plain
        ]

    def test_identical_under_stall_and_hedge(self, engine, dataset):
        # Stall the primary so the hedge path fires; the observed and
        # unobserved clusters must still agree with the local engine.
        query = dataset[0]
        local = engine.threshold_search(query, EPS)
        for observability in (False, True):
            with ServingCluster.from_engine(
                engine,
                partitions=2,
                replication=2,
                hedge_delay_seconds=0.05,
                observability=observability,
            ) as c:
                c.stall_replica(0, 0, seconds=1.0)
                served = c.threshold_search(query, EPS)
                assert served.answers == local.answers
                assert served.completeness == 1.0
                if observability:
                    snapshot = c.stats()["observability"]
                    assert snapshot["slo"]["summaries"]["query"]["count"] == 1


# ----------------------------------------------------------------------
# Worker metrics aggregation
# ----------------------------------------------------------------------
class TestClusterAccounting:
    def test_io_totals_match_single_process(self, dataset):
        config = TraSSConfig(
            bounds=BEIJING, max_resolution=12, dp_tolerance=0.002, shards=4
        )
        queries = dataset[:4]
        local_engine = TraSS.build(dataset, config)
        before = local_engine.metrics.snapshot()
        for q in queries:
            local_engine.threshold_search(q, EPS)
        after = local_engine.metrics.snapshot()
        local_delta = {k: after[k] - before[k] for k in after}

        cluster_engine = TraSS.build(dataset, config)
        with ServingCluster.from_engine(
            cluster_engine, partitions=2, observability=True
        ) as c:
            for q in queries:
                c.threshold_search(q, EPS)
            totals = c.io_totals()
        assert totals["rows_scanned"] > 0
        for field, value in local_delta.items():
            if field.startswith("plan_cache"):
                continue  # the coordinator plans; workers receive ranges
            assert totals.get(field, 0) == value, field

    def test_worker_breakdown_and_heartbeats(self, obs_cluster, dataset):
        for q in dataset[:2]:
            obs_cluster.threshold_search(q, EPS)
        snapshot = obs_cluster.stats()["observability"]
        workers = snapshot["workers"]
        assert {(w["partition"], w["replica"]) for w in workers} == {
            (0, 0),
            (1, 0),
        }
        for worker in workers:
            assert worker["queries"] > 0
            assert worker["io"]["rows_scanned"] >= 0

    def test_stats_does_not_poll_the_workers(self, engine):
        """``stats()`` reads coordinator memory only, so a stalled
        replica cannot stall it."""
        with ServingCluster.from_engine(
            engine, partitions=2, observability=True
        ) as c:
            c.stall_replica(0, 0, seconds=5.0)
            started = time.monotonic()
            stats = c.stats()
            assert time.monotonic() - started < 2.0
        assert "observability" in stats

    def test_prometheus_export_covers_the_cluster(self, engine, obs_cluster):
        # What `repro stats --cluster N --prometheus` prints: the
        # engine's registry, refreshed, with the cluster's on top.
        registry = MetricsRegistry()
        update_registry_from_engine(registry, engine)
        update_registry_from_cluster(registry, obs_cluster)
        samples = parse_prometheus(registry.to_prometheus())
        names = set(samples)
        assert any(n.startswith("trass_serve_worker_0_0_") for n in names)
        assert any(n.startswith("trass_serve_worker_1_0_") for n in names)
        assert any(n.startswith("trass_serve_cluster_io_") for n in names)
        assert "trass_serve_slo_query_seconds_count" in samples
        # SLO histograms export spec-correct cumulative le buckets.
        assert (
            samples['trass_serve_slo_query_seconds_bucket{le="+Inf"}']
            == samples["trass_serve_slo_query_seconds_count"]
        )


# ----------------------------------------------------------------------
# Latency SLOs and the error budget
# ----------------------------------------------------------------------
class TestLatencySLOs:
    def test_slo_histograms_cover_every_stage(self, engine, dataset):
        queries = dataset[:4]
        with ServingCluster.from_engine(
            engine, partitions=2, observability=True
        ) as c:
            c.obs.slo_objective_seconds = 60.0
            for q in queries:
                c.threshold_search(q, EPS)
            snapshot = c.stats()["observability"]
        summaries = snapshot["slo"]["summaries"]
        n = len(queries)
        assert summaries["query"]["count"] == n
        assert summaries["admission_wait"]["count"] == n
        assert summaries["fanout"]["count"] == n
        assert summaries["merge"]["count"] == n
        assert summaries["partition_service"]["count"] == n * 2
        assert summaries["hedge_wait"]["count"] == 0  # nothing stalled
        for key in ("query", "fanout", "partition_service"):
            s = summaries[key]
            assert s["sum"] > 0
            assert 0 < s["p50"] <= s["p95"] <= s["p99"]
        budget = snapshot["slo"]["error_budget"]
        assert budget["good_events"] == n
        assert budget["bad_events"] == 0
        assert budget["burn_rate"] == 0.0

    def test_error_budget_burn_arithmetic(self):
        obs = ClusterObservability()
        assert (obs.slo_objective_seconds, obs.slo_target) == (0.5, 0.99)
        for _ in range(9):
            obs.observe_query(0.01)
        obs.observe_query(2.0)  # over objective: bad
        budget = obs.error_budget()
        assert budget["good_events"] == 9
        assert budget["bad_events"] == 1
        # bad_rate 0.1 over an allowance of 0.01 burns at 10x.
        assert budget["burn_rate"] == pytest.approx(10.0)

    def test_skipped_queries_count_against_the_budget(self):
        obs = ClusterObservability()
        obs.slo_objective_seconds = 60.0
        obs.observe_query(0.01, ok=False)  # degraded: fast but partial
        assert obs.error_budget()["bad_events"] == 1

    def test_absorb_reply_accumulates_io(self):
        class _Payload:
            def __init__(self, delta):
                self.io_delta = delta

        obs = ClusterObservability()
        obs.absorb_reply(0, 0, _Payload({"rows_scanned": 5}))
        obs.absorb_reply(0, 0, _Payload({"rows_scanned": 3, "gets": 1}))
        obs.absorb_reply(1, 0, _Payload({"rows_scanned": 2}))
        assert obs.workers[(0, 0)]["queries"] == 2
        assert obs.workers[(0, 0)]["io"]["rows_scanned"] == 8
        assert obs.io_totals() == {"rows_scanned": 10, "gets": 1}
