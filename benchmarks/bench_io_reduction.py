"""The paper's I/O-reduction claims.

* Section IV-B (theory): averaging over every non-empty far-quad
  combination, position codes prune 83.6% of index spaces relative to
  scanning the whole enlarged element.
* Abstract / Section VI (measured): global pruning reduces rows scanned
  by up to 66.4% versus XZ-Ordering.  Here both indexes run on the
  identical embedded store, so rows-scanned is directly comparable.
"""

import itertools
import statistics

from repro.baselines import JustXZ2Baseline
from repro.bench.reporting import print_table
from conftest import EARTH
from repro.index.position_code import CODE_QUADS

EPS = 0.01


def theoretical_reduction():
    """Average I/O reduction over all 15 non-empty far-quad sets,
    counting out of the ten index spaces (Section IV-B discussion)."""
    reductions = []
    per_combo = {}
    for size in range(1, 5):
        for far in itertools.combinations("abcd", size):
            far_set = set(far)
            pruned = sum(
                1 for quads in CODE_QUADS.values() if quads & far_set
            )
            pct = 100.0 * pruned / len(CODE_QUADS)
            per_combo["".join(far)] = pct
            reductions.append(pct)
    return statistics.fmean(reductions), per_combo


def test_theoretical_position_code_reduction(benchmark):
    average, per_combo = theoretical_reduction()
    rows = [[combo, pct] for combo, pct in sorted(per_combo.items())]
    rows.append(["AVERAGE", average])
    print_table(
        ["far quads", "I/O reduction %"],
        rows,
        "Section IV-B: theoretical I/O reduction of position codes",
    )
    # Individual paper-stated values.
    assert per_combo["a"] == 80.0
    assert per_combo["b"] == 60.0
    assert per_combo["c"] == 60.0
    assert per_combo["d"] == 50.0
    assert per_combo["ad"] == 90.0
    assert per_combo["bd"] == 80.0
    assert per_combo["cd"] == 80.0
    # The paper reports an 83.6% average; the exact enumeration under
    # this code table gives ~84.7% — same ballpark, same mechanism.
    assert 80.0 <= average <= 90.0

    benchmark.pedantic(theoretical_reduction, rounds=5, iterations=1)


def test_measured_io_reduction_vs_xz2(
    benchmark, tdrive_engine, tdrive_data, tdrive_queries
):
    """Rows scanned: XZ* global pruning vs XZ-Ordering window scan."""
    just = JustXZ2Baseline(max_resolution=16, bounds=EARTH, shards=8)
    just.build(tdrive_data)

    trass_rows = []
    just_rows = []
    for query in tdrive_queries:
        trass_rows.append(
            tdrive_engine.threshold_search(query, EPS).retrieved_rows
        )
        just_rows.append(just.threshold_search(query, EPS).retrieved)

    trass_total = sum(trass_rows)
    just_total = sum(just_rows)
    reduction = 100.0 * (1.0 - trass_total / max(1, just_total))
    print_table(
        ["index", "total rows scanned"],
        [
            ["XZ* (TraSS)", trass_total],
            ["XZ2 (JUST)", just_total],
            ["reduction %", reduction],
        ],
        f"Measured I/O reduction, XZ* vs XZ-Ordering (eps={EPS})",
    )
    # Paper: up to 66.4%. Shape: a solid reduction on identical substrate.
    assert trass_total <= just_total
    assert reduction > 20.0

    query = tdrive_queries[0]
    benchmark.pedantic(
        lambda: tdrive_engine.threshold_search(query, EPS),
        rounds=3,
        iterations=1,
    )


def test_range_merge_gap_keeps_answers(
    benchmark, tdrive_engine, tdrive_queries
):
    """What coalescing near-adjacent key ranges still does.

    Sweeping ``range_merge_gap`` (the planner bridges value gaps up to
    the setting) on the same engine: the pruner's gap knob is swapped
    in place — the plan cache keys on it, so plans never leak between
    gap settings — and every setting must return the seed answers.

    A bridged plan covers a superset of index values, so rows scanned
    can only grow.  Seeks no longer fall with it: only the (range,
    salt) pairs the table cannot prove empty are dispatched, and a
    wider range is occupied more often than the narrow ranges it
    absorbed, so the seek column is printed, not asserted.
    """
    engine = tdrive_engine
    pruner = engine.pruner
    original_gap = pruner.range_merge_gap
    rows = []
    baseline = {}
    try:
        for gap in (0, 2, 8, 32):
            pruner.range_merge_gap = gap
            engine.metrics.reset()
            answers = []
            for query in tdrive_queries:
                result = engine.threshold_search(query, EPS)
                answers.append(sorted(result.answers.items()))
            snap = engine.metrics.snapshot()
            if not baseline:
                baseline["answers"] = answers
                baseline["rows"] = snap["rows_scanned"]
            else:
                # Gap merging only over-scans; answers are exact.
                assert answers == baseline["answers"], f"gap={gap}"
                assert snap["rows_scanned"] >= baseline["rows"], f"gap={gap}"
            rows.append(
                [
                    gap,
                    snap["range_seeks"],
                    snap["ranges_merged"],
                    snap["rows_scanned"],
                ]
            )
    finally:
        pruner.range_merge_gap = original_gap
    print_table(
        ["range_merge_gap", "range seeks", "ranges merged", "rows scanned"],
        rows,
        f"Range-gap coalescing: seeks vs over-scan (eps={EPS})",
    )
    # A positive gap must merge ranges; gap 0 merges none.
    assert rows[0][2] == 0
    assert rows[-1][2] > 0

    query = tdrive_queries[0]
    benchmark.pedantic(
        lambda: tdrive_engine.threshold_search(query, EPS),
        rounds=3,
        iterations=1,
    )
