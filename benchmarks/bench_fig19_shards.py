"""Figure 19 — effect of the shard (salt) count.

The shard byte scatters hot index ranges across regions; every query
must scan each shard's copy of its key ranges.  Paper shape: too few
shards concentrate similar trajectories (skew), too many multiply the
per-query range scans (communication), with a sweet spot in between
(8 on the paper's five-node cluster).

On an embedded store the skew half of the trade-off is invisible (no
parallel region servers), so the visible shape is the range-scan
multiplication: planned ``(range, salt)`` pairs grow linearly with
shards while answer sets stay identical.  The paper's store seeks every
planned pair; this one dispatches only the pairs it cannot prove empty,
so the dispatched seeks are printed beside the planned pairs, and the
cluster model and the shape assertion use the planned pairs.  Planned
pairs are the paper's data-free plan (a pruner built without the
store's occupancy); the engine's own plan, which skips the subtrees and
code blocks its store proves empty, is counted beside them.
"""

import statistics

from repro import TraSS, TraSSConfig
from repro.bench.harness import run_threshold_workload
from repro.bench.reporting import print_table
from repro.core.pruning import GlobalPruner
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like
from repro.data.workload import sample_queries
from repro.kvstore.cluster import ClusterModel

from conftest import EARTH, scaled_size

SHARDS = (1, 2, 4, 8, 16)
EPS = 0.01
NODES = 5  # the paper's cluster size


def test_fig19_shards(benchmark):
    data = tdrive_like(scaled_size(600), seed=119)
    queries = sample_queries(data, 6, seed=120)
    rows = []
    answer_sets = []
    for shards in SHARDS:
        cfg = TraSSConfig(
            bounds=EARTH,
            max_resolution=16,
            dp_tolerance=0.01,
            shards=shards,
            max_region_rows=80,  # force enough regions to spread
        )
        engine = TraSS.build(data, cfg)
        engine.metrics.reset()
        stats = run_threshold_workload(engine, queries, EPS)
        seeks = engine.metrics.range_seeks
        # Five-node cluster model: per-query makespan and skew over the
        # planned pairs, each a seek on the paper's region servers.
        model = ClusterModel(engine.store.table, nodes=NODES)
        data_free = GlobalPruner.from_config(engine.store.index, cfg)
        makespans = []
        skews = []
        planned = occupied = 0
        for query in queries:
            plan = data_free.prune(query, EPS)
            scan_ranges = engine.store.planned_scan_ranges(plan.ranges)
            planned += len(scan_ranges)
            occupied += len(
                engine.store.planned_scan_ranges(engine.plan(query, EPS).ranges)
            )
            makespans.append(model.makespan(scan_ranges))
            skews.append(model.skew(scan_ranges))
        rows.append(
            [
                shards,
                stats.median_ms,
                planned,
                occupied,
                seeks,
                statistics.fmean(skews),
                statistics.fmean(makespans),
            ]
        )
        answer_sets.append(
            frozenset(
                frozenset(engine.threshold_search(q, EPS).answers)
                for q in queries
            )
        )
    print_table(
        [
            "shards",
            "median ms",
            "planned pairs",
            "occupied-plan pairs",
            "dispatched seeks",
            "node skew",
            "model makespan",
        ],
        rows,
        f"Fig 19: shard sweep (eps={EPS}, {NODES}-node cluster model)",
    )

    # Shape: planned pairs grow with the shard count; skew shrinks from
    # 1 shard to 8 shards (the paper's data-skew argument); answers
    # identical across configurations.
    planned = [r[2] for r in rows]
    assert planned == sorted(planned)
    assert all(r[4] <= r[3] <= r[2] for r in rows)
    skew_by_shards = {r[0]: r[5] for r in rows}
    assert skew_by_shards[8] <= skew_by_shards[1]
    assert all(s == answer_sets[0] for s in answer_sets)

    benchmark.pedantic(
        lambda: run_threshold_workload(
            TraSS.build(data[:100], TraSSConfig(bounds=TDRIVE_BOUNDS, shards=8)),
            queries[:2],
            EPS,
        ),
        rounds=1,
        iterations=1,
    )
