"""The six workloads: constants, worlds and seeded queries.

Every size lives here as a named constant so a result file can carry
the whole table (``constants()``) and later issues can cite it.

What ``--seed`` controls
------------------------
The *world* of a workload — the stored trajectories and the noisy
re-observations of stored trips that serve as queries — is fixed by
``WORLD_SEED``.  ``--seed`` draws 10 cm of extra noise on every query
point (so no two seeds send the same trajectory) and the order in which
the query set is cycled.  A seeded world would make every run a
different dataset: the slowest two of 32 top-k queries then set
``latency_p95_ms`` and it moves by tens of percent from seed to seed;
even 50 m of per-seed noise moves a 16-query workload's rows scanned by
7 % as queries cross index-cell boundaries.  Both are far outside any
bound that could still catch a regression, so the seed keeps the inputs
distinct and leaves the work per op the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro import SpaceBounds, TraSSConfig
from repro.data.generators import tdrive_like
from repro.data.noise import jitter
from repro.geometry.trajectory import Trajectory

#: fixes every stored dataset and the base trajectory of every query
WORLD_SEED = 20220509

EPS = 0.01
K = 10
#: GPS noise between a query and the stored trip it derives from
#: (~50 m); part of the fixed world
QUERY_JITTER = 0.0005
#: what ``--seed`` adds on top (~10 cm): enough that no two seeds send
#: the same floats, too little to move a query across an index cell
SEED_JITTER = 1e-6
#: spread of the copies of one fleet route
FLEET_JITTER = 0.002

#: the bench-default store (ROADMAP state-of-play table)
STORE_SIZE = 1200
#: > ``TraSSConfig.plan_cache_size`` (128): every plan is a miss
FRESH_QUERIES = 256
#: < plan cache: every plan is a hit after the warm-up pass
REPEAT_QUERIES = 32
TOPK_QUERIES = 32

DENSE_ROUTES = 60
DENSE_COPIES = 50
DENSE_BACKGROUND = 1000
DENSE_QUERIES = 32

CLUSTER_PARTITIONS = 2
CLUSTER_REPLICATION = 1
RATE_LO = 25.0
RATE_HI = 75.0
#: latency limit of the open-loop phases (ms); a failed op also misses
SLO_MS = 50.0
#: share of ``--seconds`` spent at each rate; the burst follows
RATE_LO_SHARE = 0.2
RATE_HI_SHARE = 0.6
BURST_QUERIES = 768
#: the burst is sent as this many ``threshold_search_many`` batches,
#: each short enough to be scaled by calibration samples beside it
BURSTS = 12

INGEST_ROUTES = 40
INGEST_COPIES = 20
INGEST_BACKGROUND = 200
INGEST_BATCHES = 4
#: query ops per phase of a cycle (multi-run store, then ``.seg`` store)
INGEST_PHASE_OPS = 16

#: how often a run repeats its store set-up (build, save, cluster
#: start); ``setup_s`` is their median plus the one warm-up pass
SETUP_REPEATS = 5
#: ``add_all`` batches of one build, each timed on its own
BUILD_BATCHES = 8
#: ``TraSS.load`` + first query probes per set-up repetition
COLD_PROBES = 3
#: distinct queries answered by brute force per workload.  Brute force
#: costs ~60 us per stored trajectory per query, so the 4 000-row dense
#: fleet checks fewer than the rest to stay inside the run budget.
ORACLE_QUERIES = 32
ORACLE_QUERIES_DENSE = 12

#: share of ``--seconds`` a traced run spends untraced first, to get
#: the p50 that ``trace.overhead_ratio`` compares against
UNTRACED_SHARE = 0.3
#: share of a traced ``thr_repeat`` run spent on the telemetry A/B
TELEMETRY_AB_SHARE = 0.35
#: share of a traced ``cluster_open`` run spent on the closed-loop
#: cluster vs in-process A/B (``serve.coordinator_overhead_ms``)
COORDINATOR_AB_SHARE = 0.25

#: ``--smoke`` divides every dataset and query-set size by this
SMOKE_DIVISOR = 8


def engine_config(**overrides) -> TraSSConfig:
    """The paper's evaluation set-up (Section VI), shared by all six."""
    return TraSSConfig(
        bounds=SpaceBounds.whole_earth(),
        max_resolution=16,
        dp_tolerance=0.01,
        shards=8,
        **overrides,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    #: "threshold" | "topk" — the query every op sends
    kind: str
    #: "read" | "cluster" | "ingest" — which harness runs it
    harness: str
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "thr_fresh",
            "threshold",
            "read",
            "256 distinct queries > plan cache (128): 0 % plan hits, "
            "global pruning is the largest layer",
        ),
        Workload(
            "thr_repeat",
            "threshold",
            "read",
            "32 repeated queries: 100 % plan hits, so executor dispatch, "
            "kvstore seeks and decode dominate the shortest op",
        ),
        Workload(
            "thr_dense",
            "threshold",
            "read",
            "near-duplicate fleet, ~50 answers/op: local filter and exact "
            "refinement dominate, scan dispatch is bypassed",
        ),
        Workload(
            "topk",
            "topk",
            "read",
            "best-first top-10: thousands of unit scans per op, untouched "
            "by threshold-only changes",
        ),
        Workload(
            "cluster_open",
            "threshold",
            "cluster",
            "thr_repeat queries through a 2-partition cluster under "
            "open-loop load: the difference is the serving tier",
        ),
        Workload(
            "ingest_reopen",
            "threshold",
            "ingest",
            "ingest + flush, query flushed runs, save compact, reload, query "
            "cold .seg blocks: writes beside reads, and footprint",
        ),
    )
}


@dataclass
class World:
    """What a workload stores and what its queries derive from."""

    data: List[Trajectory]
    #: each distinct query before the seed's noise, in query order
    bases: List[Trajectory]
    #: how many of the queries get a brute-force answer
    oracle_queries: int

    @property
    def points(self) -> int:
        return sum(len(t) for t in self.data)


def scaled(size: int, smoke: bool) -> int:
    return max(4, size // SMOKE_DIVISOR) if smoke else size


def _moving(trajectories: List[Trajectory], min_points: int) -> List[Trajectory]:
    """Trips with at least ``min_points`` distinct fixes (drops the
    stationary taxis, whose queries are degenerate)."""
    return [t for t in trajectories if len(set(t.points)) >= min_points]


def _sample(pool: List[Trajectory], count: int, salt: int) -> List[Trajectory]:
    return random.Random(WORLD_SEED + salt).sample(pool, count)


def _noisy(trips: List[Trajectory]) -> List[Trajectory]:
    """The world's queries: stored trips re-observed with GPS noise."""
    return [
        jitter(trip, QUERY_JITTER, seed=WORLD_SEED + 7 * i, tid=f"base{i}")
        for i, trip in enumerate(trips)
    ]


def _fleet(routes: int, copies: int, background: int) -> World:
    """``routes`` x ``copies`` noisy copies of a route + background trips."""
    pool = tdrive_like(background + 4 * routes, seed=WORLD_SEED + 1)
    chosen = _moving(pool, 12)[:routes]
    chosen_ids = {t.tid for t in chosen}
    data = [t for t in pool if t.tid not in chosen_ids][:background]
    for r, route in enumerate(chosen):
        for c in range(copies):
            data.append(
                jitter(
                    route,
                    FLEET_JITTER,
                    seed=WORLD_SEED + 1000 * r + c,
                    tid=f"route{r}_copy{c}",
                )
            )
    return World(data, _noisy(chosen), 0)


def make_world(name: str, smoke: bool = False) -> World:
    """The fixed world of workload ``name`` (a pure function of the
    constants above)."""
    if name == "thr_dense":
        world = _fleet(
            scaled(DENSE_ROUTES, smoke),
            scaled(DENSE_COPIES, smoke),
            scaled(DENSE_BACKGROUND, smoke),
        )
        world.bases = world.bases[: scaled(DENSE_QUERIES, smoke)]
        world.oracle_queries = ORACLE_QUERIES_DENSE
        return world
    if name == "ingest_reopen":
        world = _fleet(
            scaled(INGEST_ROUTES, smoke),
            scaled(INGEST_COPIES, smoke),
            scaled(INGEST_BACKGROUND, smoke),
        )
        world.bases = world.bases[: scaled(INGEST_PHASE_OPS, smoke)]
        world.oracle_queries = ORACLE_QUERIES
        return world
    data = tdrive_like(scaled(STORE_SIZE, smoke), seed=WORLD_SEED)
    # (query count, sampling salt).  thr_repeat and cluster_open share
    # one query set, so their difference is the serving tier alone.
    count, salt = {
        "thr_fresh": (FRESH_QUERIES, 1),
        "thr_repeat": (REPEAT_QUERIES, 2),
        "cluster_open": (REPEAT_QUERIES, 2),
        "topk": (TOPK_QUERIES, 3),
    }[name]
    bases = _sample(_moving(data, 2), scaled(count, smoke), salt)
    return World(data, _noisy(bases), ORACLE_QUERIES)


def make_queries(world: World, seed: int) -> List[Trajectory]:
    """The distinct query set of one run: every base plus seeded noise."""
    return [
        jitter(base, SEED_JITTER, seed=seed * 100003 + i, tid=f"q{i}")
        for i, base in enumerate(world.bases)
    ]


def make_order(count: int, seed: int) -> List[int]:
    """The order one pass visits the queries in; every pass repeats it,
    so a query's repeats stay ``count`` ops apart (which keeps
    ``thr_fresh`` at exactly 0 % plan-cache hits)."""
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


def constants() -> Dict[str, object]:
    """Every workload constant, for the result file's fingerprint."""
    return {
        name: value
        for name, value in globals().items()
        if name.isupper() and isinstance(value, (int, float))
    }
