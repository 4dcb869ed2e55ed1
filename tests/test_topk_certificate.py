"""Top-k's pop-time bound sandwich against the per-candidate DP path.

Under discrete Fréchet, top-k runs only Lemmas 5 and 12 inside the scan
and, on each pop, decides from ``DiscreteFrechet.lower_bound`` and the
queued upper bound before it runs the DP: out when the lower bound is
above the threshold, exact when the two bounds meet.  Deleting
``lower_bound`` from the class restores the path every measure took
before: all four lemmas inside the scan, the DP on every pop.  Both
must give the same answers (distances and tids), ``retrieved_rows``,
``units_scanned`` and ``elements_expanded``, on an in-memory and a
``.seg`` store, for stored and noisy queries, under masked faults and
through a 2-partition serving cluster.  ``candidates`` and the filter
tallies may move (rows Lemmas 13-14 used to drop now reach the queue),
so DTW and Hausdorff, which have no lower bound, must match in every
field.
"""

import pytest

from repro import TraSS, TraSSConfig, Trajectory
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like
from repro.data.noise import jitter
from repro.kvstore.faults import FaultInjector, FaultSchedule
from repro.measures.frechet import DiscreteFrechet
from repro.serve import ServingCluster

KS = (1, 5, 10, 50)


def detour(route, offset, tid):
    """``route`` with its middle third moved ``offset`` north: the same
    endpoints (Lemma 12 passes), a different middle (Lemma 13 rejects)."""
    n = len(route.points)
    return Trajectory(tid, [
        (x, y + offset) if n // 3 <= i < n - n // 3 else (x, y)
        for i, (x, y) in enumerate(route.points)
    ])


@pytest.fixture(scope="module")
def fleet():
    routes = tdrive_like(8, seed=23)
    data = list(tdrive_like(60, seed=29))
    for r, route in enumerate(routes):
        for c in range(4):
            data.append(jitter(route, 0.002, seed=10 * r + c, tid=f"r{r}c{c}"))
        for c in range(3):
            data.append(detour(route, 0.01 * (c + 1), tid=f"r{r}d{c}"))
    stored = data[::9]
    noisy = [
        jitter(r, 0.0005, seed=7 + i, tid=f"q{i}") for i, r in enumerate(routes)
    ]
    return data, stored + noisy


def config(**overrides) -> TraSSConfig:
    settings = dict(
        bounds=TDRIVE_BOUNDS,
        max_resolution=12,
        shards=2,
        max_region_rows=16,
        retry_max_attempts=8,
    )
    return TraSSConfig(**{**settings, **overrides})


def summary(result, measure):
    """What the two paths must share: for Fréchet, the search; for the
    others, every field but the wall clock."""
    fields = (
        result.answers,
        result.retrieved_rows,
        result.units_scanned,
        result.elements_expanded,
    )
    if measure == "frechet":
        return fields
    report = result.resilience
    return fields + (
        result.candidates,
        result.filter_stats.as_dict(),
        report.ranges_total,
        report.ranges_completed,
        report.skipped_ranges,
        report.retries,
        report.faults_encountered,
    )


def run(engine_or_cluster, queries, measure):
    return [
        engine_or_cluster.topk_search(q, k, measure=measure)
        for q in queries
        for k in KS
    ]


def both_paths(monkeypatch, make, queries, measure):
    """``(certified, dp)`` results: ``make()`` builds a fresh engine (or
    cluster) for each path, so fault schedules replay from the start."""
    certified = run(make(), queries, measure)
    with monkeypatch.context() as patch:
        patch.delattr(DiscreteFrechet, "lower_bound")
        dp = run(make(), queries, measure)
    return certified, dp


def assert_parity(certified, dp, measure):
    assert [summary(r, measure) for r in certified] == [
        summary(r, measure) for r in dp
    ]
    if measure == "frechet":
        # The old path's Lemmas 13-14 did reject rows here, and every one
        # of them reached the queue instead.
        dropped = sum(
            r.filter_stats.rejected_rep_points + r.filter_stats.rejected_boxes
            for r in dp
        )
        assert dropped > 0
        assert sum(r.candidates for r in certified) == (
            sum(r.candidates for r in dp) + dropped
        )


@pytest.mark.parametrize("measure", ["frechet", "dtw", "hausdorff"])
@pytest.mark.parametrize("stored", ["memory", "segment"])
def test_certified_pops_match_the_dp_path(
    monkeypatch, tmp_path, fleet, measure, stored
):
    data, queries = fleet
    engine = TraSS.build(data, config())
    if stored == "segment":
        engine.save(tmp_path / "store")

        def make():
            return TraSS.load(tmp_path / "store")
    else:

        def make():
            return engine

    certified, dp = both_paths(monkeypatch, make, queries, measure)
    assert_parity(certified, dp, measure)


def test_masked_faults_match_the_dp_path(monkeypatch, fleet):
    data, queries = fleet
    # A failed range is retried from its start, so at 0.1 a unit range
    # over several small regions can spend its whole retry budget and
    # the outage is no longer masked.
    schedule = FaultSchedule(
        seed=9,
        region_unavailable_prob=0.05,
        max_consecutive_failures=1,
        split_prob=0.2,
        compact_prob=0.1,
    )

    def make():
        engine = TraSS.build(data, config())
        engine.install_fault_injector(FaultInjector(schedule))
        return engine

    for measure in ("frechet", "dtw"):
        certified, dp = both_paths(monkeypatch, make, queries[::2], measure)
        assert_parity(certified, dp, measure)
        assert sum(r.resilience.retries for r in certified) > 0
        assert all(r.completeness == 1.0 for r in certified)


def test_cluster_matches_the_dp_path(monkeypatch, fleet):
    """Workers fork with the class as the coordinator has it, so the
    patch reaches them."""
    data, queries = fleet
    engine = TraSS.build(data, config())
    clusters = []

    def make():
        cluster = ServingCluster.from_engine(engine, partitions=2).start()
        clusters.append(cluster)
        return cluster

    try:
        certified, dp = both_paths(monkeypatch, make, queries[::3], "frechet")
    finally:
        for cluster in clusters:
            cluster.stop()
    assert [summary(r, "frechet") for r in certified] == [
        summary(r, "frechet") for r in dp
    ]
    # Ties at the k-th distance may pick any of the tied trajectories.
    local = run(engine, queries[::3], "frechet")
    assert [[d for d, _ in r.answers] for r in certified] == [
        [d for d, _ in r.answers] for r in local
    ]


def test_certificate_replaces_most_dp_calls(monkeypatch, fleet):
    """The point of the sandwich: most pops run no DP."""
    data, queries = fleet
    engine = TraSS.build(data, config())
    calls = []
    dp = DiscreteFrechet.distance_within

    def distance_within(*args):
        calls.append(1)
        return dp(*args)

    monkeypatch.setattr(DiscreteFrechet, "distance_within", distance_within)
    run(engine, queries, "frechet")
    with_bounds = len(calls)
    monkeypatch.delattr(DiscreteFrechet, "lower_bound")
    run(engine, queries, "frechet")
    assert 0 < 2 * with_bounds < len(calls) - with_bounds
