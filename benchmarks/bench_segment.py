"""Compact segment format benchmark: footprint, cold scans, exactness.

Three drills over a 5-decimal T-Drive stand-in (real GPS feeds ship
fixed decimal precision, which is what the segment codec's lossless
quantisation exploits):

* **footprint** — the same engine saved plain (``.sst``) and compact
  (``.seg``).  CI gate: the compact snapshot must be >= 3x smaller.
* **cold scans** — time-to-first-answer: a fresh ``TraSS.load`` plus
  one threshold query, best of three, interleaved between the two
  snapshot formats so machine noise hits both equally, summed over the
  query set.  CI gate: the segment total must be lower.
  ``SSTable.load`` parses every entry before the first query can run,
  while ``Segment.open`` reads only the block index and materialises
  just the blocks the query's ranges touch — the worker-restart
  latency story behind the mmap design.  Warm throughput (everything
  materialised) is reported for reference; the formats are at parity
  there by construction.
* **exactness** — sha256 over the canonical answer set must be
  identical across every execution path: the in-memory builder, the
  plain snapshot, the compact snapshot, the compact snapshot under
  seeded region-fault chaos, and a ``segment_dir`` serving cluster
  (whose replicas mmap the same files).

A JSON report is printed and, when ``REPRO_BENCH_JSON`` names a file,
appended there (the CI job uploads it as ``BENCH_segment.json``).
"""

import hashlib
import json
import os
import time

from repro import TraSS, TraSSConfig
from repro.bench.reporting import print_table
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like
from repro.data.workload import sample_queries
from repro.kvstore.faults import FaultInjector, FaultSchedule
from repro.serve import ServingCluster

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
SIZE = max(100, int(9600 * SCALE))
NUM_QUERIES = 6
EPS = 0.003
TRIALS = 3


def _build():
    data = tdrive_like(SIZE, seed=301, decimals=5)
    config = TraSSConfig(
        bounds=TDRIVE_BOUNDS,
        max_resolution=14,
        dp_tolerance=0.002,
        shards=8,
        retry_backoff_base=0.0,
        retry_backoff_max=0.0,
    )
    return TraSS.build(data, config), data


def _workload(engine_or_cluster, queries):
    answers = {}
    for i, q in enumerate(queries):
        result = engine_or_cluster.threshold_search(q, EPS)
        answers[i] = sorted(result.answers.items())
    return answers


def _digest(answers) -> str:
    canonical = json.dumps(
        {str(k): v for k, v in answers.items()}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _data_bytes(directory, suffix):
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.endswith(suffix)
    )


def _cold_first_answer_seconds(plain_dir, compact_dir, queries):
    """Summed best-of-TRIALS time-to-first-answer per query, per format.

    Trials interleave the two formats within each query so ambient
    machine noise degrades both measurements alike.
    """
    totals = {"sstable": 0.0, "segment": 0.0}
    for q in queries:
        for directory, label in (
            (plain_dir, "sstable"),
            (compact_dir, "segment"),
        ):
            best = float("inf")
            for _ in range(TRIALS):
                started = time.perf_counter()
                engine = TraSS.load(directory)
                engine.threshold_search(q, EPS)
                best = min(best, time.perf_counter() - started)
            totals[label] += best
    return totals


def test_segment_footprint_cold_scans_and_exactness(tmp_path_factory):
    engine, data = _build()
    queries = sample_queries(data, NUM_QUERIES, seed=302)
    base_answers = _workload(engine, queries)
    digests = {"in_memory": _digest(base_answers)}

    root = tmp_path_factory.mktemp("bench_segment")
    plain_dir = str(root / "plain")
    compact_dir = str(root / "compact")
    engine.save(plain_dir)
    engine.save(compact_dir, compact=True)

    sst_bytes = _data_bytes(plain_dir, ".sst")
    seg_bytes = _data_bytes(compact_dir, ".seg")
    ratio = sst_bytes / max(1, seg_bytes)

    cold = _cold_first_answer_seconds(plain_dir, compact_dir, queries)

    # Full-workload answers from each snapshot (also warms nothing —
    # every load below is fresh).
    digests["cold_sstable"] = _digest(_workload(TraSS.load(plain_dir), queries))
    loaded = TraSS.load(compact_dir)
    storage_before = loaded.stats()["storage"]["segments"]
    blocks_at_load = storage_before["blocks_materialized"]
    digests["cold_segment"] = _digest(_workload(loaded, queries))
    storage = loaded.stats()["storage"]["segments"]

    chaotic = TraSS.load(compact_dir)
    chaotic.install_fault_injector(
        FaultInjector(FaultSchedule(seed=303, region_unavailable_prob=0.15))
    )
    digests["segment_chaos"] = _digest(_workload(chaotic, queries))
    retries = chaotic.metrics.snapshot()["retries"]

    with ServingCluster.from_engine(
        engine,
        partitions=2,
        replication=2,
        segment_dir=str(root / "serve-segments"),
    ) as cluster:
        digests["segment_cluster"] = _digest(_workload(cluster, queries))

    speedup = cold["sstable"] / cold["segment"]
    report = {
        "trajectories": SIZE,
        "queries": len(queries),
        "eps": EPS,
        "sstable_bytes": sst_bytes,
        "segment_bytes": seg_bytes,
        "compression_ratio": ratio,
        "cold_first_answer_sstable_seconds": cold["sstable"],
        "cold_first_answer_segment_seconds": cold["segment"],
        "cold_speedup": speedup,
        "blocks_total": storage["blocks"],
        "blocks_materialized_at_load": blocks_at_load,
        "blocks_materialized_by_workload": storage["blocks_materialized"],
        "chaos_retries": retries,
        "digests": digests,
    }
    print_table(
        ["path", "bytes", "cold ttfa ms", "sha256[:12]"],
        [
            ["sstable", sst_bytes, f"{cold['sstable'] * 1000:.1f}",
             digests["cold_sstable"][:12]],
            ["segment", seg_bytes, f"{cold['segment'] * 1000:.1f}",
             digests["cold_segment"][:12]],
        ],
        title=f"compact segment: {ratio:.2f}x smaller, "
        f"{speedup:.2f}x faster cold first answer",
    )
    _emit_json({"segment": report})

    # --- CI gates -----------------------------------------------------
    assert len(set(digests.values())) == 1, (
        f"answer divergence across paths: {digests}"
    )
    assert ratio >= 3.0, (
        f"compact snapshot only {ratio:.2f}x smaller "
        f"({sst_bytes} -> {seg_bytes} bytes)"
    )
    assert cold["segment"] < cold["sstable"], (
        f"cold scans not faster: segment {cold['segment']:.3f}s vs "
        f"sstable {cold['sstable']:.3f}s"
    )
    assert blocks_at_load == 0, (
        f"load materialised {blocks_at_load} blocks eagerly"
    )
    assert storage["blocks_materialized"] < storage["blocks"], (
        "workload materialised every block — laziness gate is vacuous"
    )
    assert retries > 0, "chaos schedule injected no faults"


def _emit_json(report: dict) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True)
    print(payload)
    path = os.environ.get("REPRO_BENCH_JSON")
    if path:
        with open(path, "a") as fh:
            fh.write(payload + "\n")
