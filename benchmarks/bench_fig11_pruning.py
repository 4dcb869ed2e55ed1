"""Figure 11 — effect of the pruning strategies (eps = 0.01).

Three panels: (a) pruning time, (b) retrieved trajectories (global
pruning's filtration capacity), (c) precision (final answers over
candidates — local filtering's capacity).

Paper shape: TraSS spends the least time pruning, retrieves the fewest
trajectories, and has the highest precision.

Panel (a) is the paper's data-free Algorithm 1, timed on a pruner built
without the store's occupancy.  The engine's own planner also skips the
subtrees and code blocks its store proves empty; its tallies are
printed beside the data-free ones.  Retrieved rows and precision come
from the engine's searches, and the two plans cover the same occupied
index values, so neither column depends on which plan ran.
"""

import statistics
import time

from repro.bench.harness import run_threshold_workload
from repro.bench.reporting import print_table
from repro.core.pruning import GlobalPruner

EPS = 0.01


def test_fig11_pruning_strategies(
    benchmark, tdrive_engine, tdrive_baselines, tdrive_queries
):
    # Panel (a): the paper's data-free plan, uncached.
    data_free = GlobalPruner(
        tdrive_engine.store.index, tdrive_engine.config.max_planned_elements
    )
    occupied = GlobalPruner(
        tdrive_engine.store.index,
        tdrive_engine.config.max_planned_elements,
        occupancy=tdrive_engine.store,
    )
    plan_rows = []
    for label, pruner in (("data-free", data_free), ("occupied", occupied)):
        times, plans = [], []
        for query in tdrive_queries:
            started = time.perf_counter()
            plans.append(pruner.prune(query, EPS))
            times.append((time.perf_counter() - started) * 1000)
        plan_rows.append(
            [
                label,
                statistics.median(times),
                statistics.fmean(p.elements_visited for p in plans),
                statistics.fmean(p.elements_pruned_empty for p in plans),
                statistics.fmean(len(p.ranges) for p in plans),
                statistics.fmean(p.num_index_spaces for p in plans),
            ]
        )
    pruning_times = [plan_rows[0][1]]
    retrieved = []
    candidates = []
    answers = []
    for query in tdrive_queries:
        result = tdrive_engine.threshold_search(query, EPS)
        retrieved.append(result.retrieved_rows)
        candidates.append(result.candidates)
        answers.append(len(result.answers))

    rows = [
        [
            "TraSS",
            statistics.median(pruning_times),
            statistics.fmean(retrieved),
            (sum(answers) / sum(candidates)) if sum(candidates) else 1.0,
        ]
    ]
    for name, system in tdrive_baselines.items():
        stats = run_threshold_workload(system, tdrive_queries, EPS, name)
        rows.append(
            [name, stats.median_ms, stats.mean_retrieved, stats.precision]
        )

    print_table(
        ["system", "prune/query ms", "retrieved rows", "precision"],
        rows,
        f"Fig 11: pruning strategies (eps = {EPS})",
    )
    print_table(
        [
            "TraSS plan",
            "prune/query ms",
            "elements visited",
            "empty subtrees",
            "key ranges",
            "index spaces",
        ],
        plan_rows,
        "Fig 11(a): the data-free plan against the occupied-space plan",
    )

    # Shape: TraSS retrieves no more rows than JUST (the 66.4% claim's
    # direction) and precision is sane.
    just = next(r for r in rows if r[0] == "JUST")
    assert rows[0][2] <= just[2]
    assert 0.0 <= rows[0][3] <= 1.0
    # The occupied plan walks no more cells and no more ranges.
    assert plan_rows[1][2] <= plan_rows[0][2]
    assert plan_rows[1][4] <= plan_rows[0][4]

    query = tdrive_queries[0]
    benchmark.pedantic(
        lambda: data_free.prune(query, EPS), rounds=3, iterations=1
    )
