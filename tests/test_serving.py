"""The distributed serving tier: exactness, failover, hedging,
degraded accounting and admission control.

Every answer-bearing test asserts *bit-identical* agreement with the
single-process engine — the serving tier's contract is that sharding,
replication and failure handling change latency and availability,
never answers.  Timings are generous (the suite must pass on a 1-CPU
machine); determinism comes from in-band worker directives (stall /
crash land in a worker's FIFO at an exact queue position), not from
racing real kills against real queries.
"""

import gc
import math
import os
import random
import threading
import time

import pytest

from repro import SpaceBounds, TraSS, TraSSConfig, Trajectory
from repro.exceptions import (
    ClusterError,
    DegradedResult,
    OverloadedError,
    QueryError,
)
from repro.serve import AdmissionController, ServingCluster, TokenBucket

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
        bounds=BEIJING, max_resolution=12, dp_tolerance=0.002, shards=4
    )
    return TraSS.build(dataset, config)


@pytest.fixture(scope="module")
def cluster(engine):
    with ServingCluster.from_engine(engine, partitions=2) as c:
        yield c


def _queries(dataset, n=4):
    return dataset[:n]


class TestExactness:
    def test_threshold_matches_single_process(self, engine, dataset, cluster):
        for q in _queries(dataset):
            local = engine.threshold_search(q, EPS)
            served = cluster.threshold_search(q, EPS)
            assert served.answers == local.answers
            assert served.candidates == local.candidates
            assert served.retrieved_rows == local.retrieved_rows
            # Scan-range accounting survives the partition merge: the
            # per-worker ranges_total values sum to the single-process
            # count (each worker scans |ranges| x |owned salts|).
            assert (
                served.resilience.ranges_total
                == local.resilience.ranges_total
            )
            assert served.skipped_ranges == []
            assert served.completeness == 1.0

    def test_threshold_batch_matches(self, engine, dataset, cluster):
        queries = _queries(dataset, 8)
        local = engine.threshold_search_many(queries, EPS)
        served = cluster.threshold_search_many(queries, EPS)
        assert [r.answers for r in served] == [r.answers for r in local]
        assert [r.candidates for r in served] == [
            r.candidates for r in local
        ]

    def test_topk_matches(self, engine, dataset, cluster):
        for q in _queries(dataset, 3):
            local = engine.topk_search(q, 5)
            served = cluster.topk_search(q, 5)
            # Answers are the contract; candidate counts legitimately
            # differ (each worker's incremental k-th-distance bound
            # tightens over its own slice only).
            assert served.answers == local.answers
            assert served.candidates >= len(local.answers)

    def test_topk_batch_matches(self, engine, dataset, cluster):
        queries = _queries(dataset, 6)
        local = [engine.topk_search(q, 3) for q in queries]
        served = cluster.topk_search_many(queries, 3)
        assert [r.answers for r in served] == [r.answers for r in local]

    @pytest.mark.parametrize("measure", [None, "hausdorff"])
    @pytest.mark.parametrize("many", [False, True])
    @pytest.mark.parametrize("kind", ["threshold", "topk"])
    def test_remote_executor_delegation(
        self, engine, dataset, cluster, kind, many, measure
    ):
        """engine.set_remote_executor routes every public entry point
        through the cluster (the `repro query --cluster` path): same
        answers, and the engine-side read models move exactly as they
        do for a local query.  ``hausdorff`` overrides the configured
        measure per call and runs the workers with Lemma 12 off."""
        queries = dataset[1:4] if many else dataset[1:2]
        parameter = 4 if kind == "topk" else EPS

        def run():
            """(results, query-counter delta, latency observations,
            slow-log entries) of one call on the current substrate."""
            count = engine.registry.counter(f"trass.query.{kind}.count")
            seconds = engine.registry.histogram("trass.query.seconds")
            before = (count.value, seconds.count)
            engine.slow_query_log.clear()
            if many:
                search = getattr(engine, f"{kind}_search_many")
                results = search(queries, parameter, measure=measure)
            else:
                search = getattr(engine, f"{kind}_search")
                results = [search(queries[0], parameter, measure=measure)]
            return (
                results,
                count.value - before[0],
                seconds.count - before[1],
                engine.slow_query_log.entries(),
            )

        engine.slow_query_log.threshold_seconds = 0.0  # log every query
        try:
            local, local_count, local_seconds, local_log = run()
            engine.set_remote_executor(cluster)
            assert engine.remote_executor is cluster
            served, served_count, served_seconds, served_log = run()
        finally:
            engine.set_remote_executor(None)
            engine.slow_query_log.threshold_seconds = None
        assert [r.answers for r in served] == [r.answers for r in local]
        assert all(r.completeness == 1.0 for r in served)
        assert served_count == local_count == len(queries)
        assert served_seconds == local_seconds == len(queries)
        assert [e.origin for e in local_log] == ["local"] * len(queries)
        assert [e.origin for e in served_log] == ["cluster"] * len(queries)
        assert [e.query_tid for e in served_log] == [q.tid for q in queries]
        if not many:
            assert {leg["partition"] for leg in served_log[0].fanout} == {0, 1}

    def test_front_door_validation_matches_local(
        self, engine, dataset, cluster
    ):
        """Local and cluster-routed entry points agree on what a bad
        argument is, and on every accepted shape of ``eps``."""
        queries = dataset[:3]
        eps_list = [EPS, 2 * EPS, 3 * EPS]
        bad_calls = [
            lambda: engine.threshold_search_many(queries, [EPS]),
            lambda: engine.threshold_search_many(queries, [EPS, -EPS, EPS]),
            lambda: engine.threshold_search(queries[0], -EPS),
            lambda: engine.threshold_search(queries[0], math.nan),
            lambda: engine.threshold_search_many(queries, [EPS, math.nan, EPS]),
            lambda: engine.topk_search(queries[0], 0),
            lambda: engine.topk_search_many(queries, 0),
            lambda: engine.topk_search_many([], 0),
            lambda: engine.threshold_search(queries[0], EPS, measure="edr"),
            lambda: engine.threshold_search_many(queries, EPS, measure="edr"),
            lambda: engine.topk_search(queries[0], 3, measure="edr"),
            lambda: engine.topk_search_many(queries, 3, measure="edr"),
        ]

        def outcomes():
            answers = [
                [r.answers for r in engine.threshold_search_many(queries, e)]
                for e in (eps_list, tuple(eps_list), (e for e in eps_list))
            ]
            errors = []
            for call in bad_calls:
                with pytest.raises(QueryError) as caught:
                    call()
                errors.append(str(caught.value))
            return answers, errors

        local = outcomes()
        engine.set_remote_executor(cluster)
        try:
            served = outcomes()
        finally:
            engine.set_remote_executor(None)
        assert served == local
        assert local[0][0] == local[0][1] == local[0][2]
        assert "available: ['dtw', 'frechet', 'hausdorff']" in local[1][-1]

    def test_string_key_encoding_matches(self, dataset):
        config = TraSSConfig(
            bounds=BEIJING, max_resolution=10, dp_tolerance=0.002, shards=4
        )
        engine = TraSS.build(dataset[:30], config, key_encoding="string")
        with ServingCluster.from_engine(engine, partitions=2) as c:
            for q in dataset[:2]:
                local = engine.threshold_search(q, EPS)
                served = c.threshold_search(q, EPS)
                assert served.answers == local.answers

    def test_counters_track_queries(self, cluster):
        stats = cluster.stats()
        assert stats["partitions"] == 2
        assert stats["counters"]["threshold_queries"] > 0
        assert stats["counters"]["worker_errors"] == 0


class TestFailover:
    def test_sigkill_with_replica_is_exact(self, engine, dataset):
        """Killing a worker outright loses zero queries when a replica
        exists: the dead process is replaced and/or its peer serves."""
        with ServingCluster.from_engine(
            engine, partitions=2, replication=2
        ) as c:
            q = dataset[0]
            local = engine.threshold_search(q, EPS)
            assert c.threshold_search(q, EPS).answers == local.answers
            c.kill_replica(0, 0)
            served = c.threshold_search(q, EPS)
            assert served.answers == local.answers
            assert served.skipped_ranges == []
            stats = c.stats()
            assert (
                stats["counters"]["failovers"] + stats["worker_restarts"]
                >= 1
            )

    def test_inband_crash_mid_batch_fails_over(self, engine, dataset):
        """A worker that dies mid-stream (after receiving part of a
        pipelined batch) triggers EOF failover; answers stay exact."""
        queries = dataset[:6]
        local = engine.threshold_search_many(queries, EPS)
        with ServingCluster.from_engine(
            engine, partitions=2, replication=2, max_restarts=0
        ) as c:
            # The stall parks replica (0, 0) so the batch is assigned
            # to it while asleep; the crash directive queued behind the
            # stall kills it after it has consumed part of the batch.
            c.stall_replica(0, 0, seconds=0.2)
            c.crash_replica_inband(0, 0)
            served = c.threshold_search_many(queries, EPS)
            assert [r.answers for r in served] == [
                r.answers for r in local
            ]
            assert c.counters["failovers"] >= 1

    def test_restart_cap_limits_respawns(self, engine, dataset):
        with ServingCluster.from_engine(
            engine, partitions=1, replication=2, max_restarts=1
        ) as c:
            q = dataset[0]
            local = engine.threshold_search(q, EPS)
            for _ in range(3):
                c.kill_replica(0, 0)
                assert c.threshold_search(q, EPS).answers == local.answers
            # Slot (0, 0) was only allowed one respawn; the extra kills
            # were absorbed by replica 1, not by unbounded restarts.
            assert c.supervisor.total_restarts <= 2


class TestDegraded:
    def _dead_partition_cluster(self, engine):
        return ServingCluster.from_engine(
            engine,
            partitions=2,
            replication=1,
            max_restarts=0,
            max_attempts=1,
            degraded_mode=True,
        )

    def test_skipped_ranges_are_exact(self, engine, dataset):
        """With no replica left, the degraded answer reports *exactly*
        the row-key ranges the dead partition would have scanned."""
        q = dataset[0]
        with self._dead_partition_cluster(engine) as c:
            c.kill_replica(0, 0)
            served = c.threshold_search(q, EPS)
            plan = c.pruner.prune(q, EPS)
            expected_skipped = engine.store.scan_ranges_for(
                plan.ranges, shards=c.owned_salts(0)
            )
            assert served.skipped_ranges == expected_skipped
            assert 0.0 < served.completeness < 1.0
            assert c.counters["degraded_queries"] >= 1
            # The surviving partition's answers are all present and a
            # subset of the full answer set.
            local = engine.threshold_search(q, EPS)
            assert set(served.answers) <= set(local.answers)
            for tid, dist in served.answers.items():
                assert local.answers[tid] == dist

    def test_degraded_mode_off_raises_with_partial(self, engine, dataset):
        q = dataset[0]
        with ServingCluster.from_engine(
            engine,
            partitions=2,
            replication=1,
            max_restarts=0,
            max_attempts=1,
            degraded_mode=False,
        ) as c:
            c.kill_replica(0, 0)
            with pytest.raises(DegradedResult) as excinfo:
                c.threshold_search(q, EPS)
            assert excinfo.value.skipped_ranges
            assert excinfo.value.result is not None
            assert excinfo.value.result.completeness < 1.0

    def test_degraded_topk_reports_full_salt_spans(self, engine, dataset):
        """Top-k is plan-free on the wire, so a dead partition's
        skipped ranges are its whole salt spans."""
        q = dataset[0]
        with self._dead_partition_cluster(engine) as c:
            c.kill_replica(0, 0)
            served = c.topk_search(q, 5)
            starts = sorted(r.start[0] for r in served.skipped_ranges)
            assert starts == sorted(c.owned_salts(0))
            assert served.completeness < 1.0


class TestHedging:
    def test_hedged_request_beats_straggler(self, engine, dataset):
        q = dataset[0]
        local = engine.threshold_search(q, EPS)
        with ServingCluster.from_engine(
            engine,
            partitions=1,
            replication=2,
            hedge_delay_seconds=0.2,
        ) as c:
            c.stall_replica(0, 0, seconds=3.0)
            served = c.threshold_search(q, EPS)
            assert served.answers == local.answers
            assert c.counters["hedges"] >= 1
            # a hedge win means the 3 s straggler was not waited out
            assert c.counters["hedge_wins"] >= 1
            # The straggler's late reply is drained, not misdelivered:
            # the next query is exact.
            assert c.threshold_search(q, EPS).answers == local.answers


class TestAdmission:
    def test_token_bucket_refill_and_retry_after(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_take() == (True, 0.0)
        assert bucket.try_take() == (True, 0.0)
        ok, retry_after = bucket.try_take()
        assert not ok
        assert retry_after == pytest.approx(0.5)
        now[0] += 0.5  # one token refilled
        assert bucket.try_take() == (True, 0.0)

    def test_quota_rejection_is_typed(self, engine, dataset):
        now = [0.0]
        admission = AdmissionController(
            tenant_rate=1.0, tenant_burst=2.0, clock=lambda: now[0]
        )
        q = dataset[0]
        with ServingCluster.from_engine(
            engine, partitions=1, admission=admission
        ) as c:
            c.threshold_search(q, EPS)
            c.threshold_search(q, EPS)
            with pytest.raises(OverloadedError) as excinfo:
                c.threshold_search(q, EPS)
            assert excinfo.value.reason == "quota"
            assert excinfo.value.tenant == "default"
            assert excinfo.value.retry_after_seconds > 0
            # An isolated tenant has its own bucket.
            c.threshold_search(q, EPS, tenant="other")
            snapshot = c.admission.snapshot()
            assert snapshot["admitted"] == 3
            assert snapshot["rejected_quota"] == 1
            assert snapshot["tenants"] == 2
            assert snapshot["in_flight"] == 0  # released after serving

    def test_queue_depth_shedding_is_typed(self, engine, dataset):
        q = dataset[0]
        admission = AdmissionController(max_in_flight=1)
        with ServingCluster.from_engine(
            engine, partitions=1, admission=admission
        ) as c:
            c.stall_replica(0, 0, seconds=1.5)
            first_result = {}

            def slow_query():
                first_result["r"] = c.threshold_search(q, EPS)

            t = threading.Thread(target=slow_query)
            t.start()
            time.sleep(0.4)  # query 1 is admitted, stuck on the stall
            with pytest.raises(OverloadedError) as excinfo:
                c.threshold_search(q, EPS)
            assert excinfo.value.reason == "queue_depth"
            assert excinfo.value.retry_after_seconds is None
            t.join()
            assert (
                first_result["r"].answers
                == engine.threshold_search(q, EPS).answers
            )
            assert c.admission.snapshot()["rejected_queue_depth"] == 1

    def test_rejection_does_not_leak_in_flight(self, engine):
        admission = AdmissionController(max_in_flight=1)
        admission.in_flight = 1  # simulate a stuck request
        cluster = ServingCluster.from_engine(
            engine, partitions=1, admission=admission
        )
        with pytest.raises(OverloadedError):
            cluster.threshold_search(Trajectory("q", [(116.5, 40.0)]), EPS)
        assert admission.snapshot()["in_flight"] == 1  # unchanged


class TestValidationAndObservability:
    def test_constructor_validation(self, engine):
        with pytest.raises(ClusterError):
            ServingCluster.from_engine(engine, partitions=0)
        with pytest.raises(ClusterError):
            # 4 salt shards cannot feed 5 partitions.
            ServingCluster.from_engine(engine, partitions=5)
        with pytest.raises(ClusterError):
            ServingCluster.from_engine(engine, partitions=2, replication=0)
        with pytest.raises(ClusterError):
            ServingCluster.from_engine(
                engine, partitions=2, request_timeout=0.0
            )
        with pytest.raises(ClusterError):
            ServingCluster.from_engine(
                engine, partitions=2, hedge_delay_seconds=-1.0
            )

    def test_protocol_version_mismatch_fails_start(self, engine, monkeypatch):
        """A worker that speaks another protocol version is refused at
        the handshake, and the failed start leaves no child behind."""
        from repro.serve import worker

        # Workers are forked from this process, so they report the
        # patched value while the coordinator expects the real one.
        monkeypatch.setattr(
            worker, "PROTOCOL_VERSION", worker.PROTOCOL_VERSION + 1
        )
        cluster = ServingCluster.from_engine(engine, partitions=2)
        spawned = []
        spawn = cluster.supervisor.spawn

        def recording_spawn(spec):
            spawned.append(spawn(spec))
            return spawned[-1]

        monkeypatch.setattr(cluster.supervisor, "spawn", recording_spawn)
        with pytest.raises(ClusterError, match="protocol version"):
            cluster.start()
        assert len(spawned) == 2
        assert not any(handle.alive() for handle in spawned)
        assert cluster.stats()["started"] is False

    def test_owned_salts_partition_the_shards(self, engine):
        cluster = ServingCluster.from_engine(engine, partitions=2)
        salts = [
            s for p in range(2) for s in cluster.owned_salts(p)
        ]
        assert sorted(salts) == list(range(engine.config.shards))

    def test_registry_export(self, cluster):
        from repro.obs import MetricsRegistry, update_registry_from_cluster

        registry = MetricsRegistry()
        update_registry_from_cluster(registry, cluster)
        assert registry.get("trass.serve.partitions").value == 2
        exposition = registry.to_prometheus()
        assert "trass_serve_requests" in exposition.replace(".", "_")


@pytest.mark.segment
class TestSegmentSharing:
    """Shared-memory serving: with ``segment_dir`` set, every replica of
    a partition mmaps the *same* compact segment files, so the kernel
    page cache holds one physical copy of the cold data regardless of
    replication factor."""

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="requires Linux procfs"
    )
    def test_replicas_mmap_share_segments(self, engine, dataset, tmp_path):
        # Forked workers inherit this process's maps: drop the .seg
        # maps of earlier tests' dead engines still awaiting cyclic GC.
        gc.collect()
        seg_root = str(tmp_path / "segments")
        with ServingCluster.from_engine(
            engine,
            partitions=2,
            replication=2,
            segment_dir=seg_root,
        ) as cluster:
            # Answers stay bit-identical to the single-process engine.
            for q in dataset[:4]:
                local = engine.threshold_search(q, EPS)
                served = cluster.threshold_search(q, EPS)
                assert served.answers == local.answers

            for partition in range(2):
                mapped = []
                for handle in cluster._replicas[partition]:
                    pid = handle.process.pid
                    with open(f"/proc/{pid}/maps") as fh:
                        segs = sorted(
                            {
                                line.split()[-1]
                                for line in fh
                                if line.rstrip().endswith(".seg")
                            }
                        )
                    mapped.append(segs)
                # Every replica mapped at least one segment file, and
                # all replicas of the partition map the SAME files.
                assert mapped[0], "worker did not mmap any segment"
                assert all(m == mapped[0] for m in mapped)
                assert all(p.startswith(seg_root) for p in mapped[0])

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/smaps"),
        reason="requires /proc/<pid>/smaps",
    )
    def test_segment_mappings_have_no_private_dirty(self, engine, dataset, tmp_path):
        """Read-only segment mappings never dirty pages: all resident
        bytes are shared page-cache pages, not per-process copies."""
        seg_root = str(tmp_path / "segments")
        with ServingCluster.from_engine(
            engine, partitions=1, replication=2, segment_dir=seg_root
        ) as cluster:
            for q in dataset[:4]:
                cluster.threshold_search(q, EPS)
            for handle in cluster._replicas[0]:
                pid = handle.process.pid
                with open(f"/proc/{pid}/smaps") as fh:
                    smaps = fh.read()
                dirty = []
                current = None
                for line in smaps.splitlines():
                    if line.rstrip().endswith(".seg"):
                        current = line.split()[-1]
                    elif current and line.startswith("Private_Dirty:"):
                        dirty.append((current, int(line.split()[1])))
                        current = None
                assert dirty, "no .seg mapping found in smaps"
                assert all(kb == 0 for _, kb in dirty), dirty
