"""The batched Fréchet refinement against the per-row banded loop.

``DiscreteFrechet.distance_within_many`` refines a query's survivors in
one NumPy program over the anti-diagonals of all their lattices, with
every cell unclamped and only the final one compared with the limit.
Clamping commutes with the recurrence's ``min`` / ``max``, so each
value must *equal* what ``distance_within`` returns for that row alone
(``None`` included), whatever the row count (around the crossover
``_BATCH_MIN``), the lengths, the cell-budget groups, the threshold or
the side types.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import TraSS, TraSSConfig
from repro.baselines.brute import BruteForceBaseline
from repro.core.codec import encode_row
from repro.core.storage import TrajectoryRecord
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like
from repro.data.noise import jitter
from repro.features.dp_features import extract_dp_features
from repro.geometry.trajectory import Trajectory
from repro.measures import frechet
from repro.measures.frechet import DiscreteFrechet

FRECHET = DiscreteFrechet()


def _record(tid, points) -> TrajectoryRecord:
    floats = Trajectory(tid, points).points
    blob = encode_row(tid, floats, extract_dp_features(floats, 0.5))
    return TrajectoryRecord.from_row(blob)


def _side(kind: str, tid: str, points):
    if kind == "trajectory":
        return Trajectory(tid, points)
    if kind == "record":
        return _record(tid, points)
    return list(points)


def _walk(rng: random.Random, length: int, step: float):
    """A random walk; ``step`` 0 repeats one point ``length`` times."""
    x, y = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    points = []
    for _ in range(length):
        points.append((x, y))
        x += rng.uniform(-step, step)
        y += rng.uniform(-step, step)
    return points


@st.composite
def batches(draw):
    """``(query, rows)`` as point lists.  Up to ~80 rows of up to 40
    points, or up to 17 rows of up to ~200 (those split into several
    cell-budget groups); some rows repeat the query or another row."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edge = frechet._BATCH_MIN
    count = draw(
        st.sampled_from([0, 1, edge - 1, edge, edge + 1, 15, 16, 17, 80])
    )
    longest = draw(
        st.sampled_from([1, 5, 40] if count > 17 else [1, 5, 40, 200])
    )
    step = draw(st.sampled_from([0.0, 0.01, 0.2]))
    query = _walk(rng, rng.randint(1, longest), step)
    rows = [_walk(rng, rng.randint(1, longest), step) for _ in range(count)]
    for i in range(count):
        pick = rng.random()
        if pick < 0.1:
            rows[i] = list(query)
        elif pick < 0.2:
            rows[i] = list(rows[rng.randrange(count)])
        elif pick < 0.25:
            rows[i] = rows[i][:1]
    return query, rows


def _thresholds(query, rows):
    """0, inf, and the exact distance of a row and of the median row."""
    thresholds = [0.0, math.inf]
    if rows:
        exact = sorted(FRECHET.distance(query, row) for row in rows)
        thresholds.append(FRECHET.distance(query, rows[0]))
        thresholds.append(exact[len(exact) // 2])
    return thresholds


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    batches(),
    st.sampled_from(["list", "trajectory", "record"]),
    st.sampled_from(["list", "trajectory", "record"]),
)
def test_batch_equals_the_loop(batch, query_kind, row_kind):
    query_points, row_points = batch
    query = _side(query_kind, "q", query_points)
    rows = [_side(row_kind, f"r{i}", p) for i, p in enumerate(row_points)]
    for eps in _thresholds(query_points, row_points):
        expected = [FRECHET.distance_within(query, row, eps) for row in rows]
        assert FRECHET.distance_within_many(query, rows, eps) == expected, eps


@pytest.mark.parametrize("budget", [1, 4_000, frechet._GROUP_CELLS])
def test_every_group_split_equals_the_loop(monkeypatch, budget):
    """A budget of one cell makes every row its own group; the others
    split the batch at different lengths."""
    monkeypatch.setattr(frechet, "_GROUP_CELLS", budget)
    rng = random.Random(budget)
    query = _walk(rng, 60, 0.05)
    rows = [_walk(rng, rng.randint(1, 120), 0.05) for _ in range(40)]
    rows += [list(query), query[:1], [query[0]] * 7]
    for eps in _thresholds(query, rows):
        expected = [FRECHET.distance_within(query, row, eps) for row in rows]
        assert FRECHET.distance_within_many(query, rows, eps) == expected


def test_below_the_crossover_runs_the_loop(monkeypatch):
    """Fewer than ``_BATCH_MIN`` rows, or ``eps = inf``, never reach the
    batched program."""

    def fail(*_):
        raise AssertionError("batched program called")

    monkeypatch.setattr(frechet, "_batched_sq", fail)
    rng = random.Random(5)
    query = _walk(rng, 20, 0.05)
    rows = [_walk(rng, 20, 0.05) for _ in range(frechet._BATCH_MIN)]
    few = rows[: frechet._BATCH_MIN - 1]
    assert FRECHET.distance_within_many(query, few, 0.1) == [
        FRECHET.distance_within(query, row, 0.1) for row in few
    ]
    assert FRECHET.distance_within_many(query, rows, math.inf) == [
        FRECHET.distance(query, row) for row in rows
    ]


def test_engine_with_batched_refinement_equals_brute_force():
    """Every query has at least ``_BATCH_MIN`` survivors, so the engine
    refines through the batched program; its answers equal brute force."""
    rng = random.Random(44)
    trips = tdrive_like(12, seed=44)
    routes = [t for t in trips if len(set(t.points)) >= 8][:3]
    data = tdrive_like(60, seed=45)
    for r, route in enumerate(routes):
        data += [
            jitter(route, 0.0005, seed=100 * r + c, tid=f"route{r}_{c}")
            for c in range(24)
        ]
    config = TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=12, shards=2)
    engine = TraSS.build(data, config)
    brute = BruteForceBaseline("frechet")
    brute.build(data)
    for r, route in enumerate(routes):
        query = jitter(route, 0.0005, seed=rng.randrange(10**6), tid=f"q{r}")
        result = engine.threshold_search(query, 0.01)
        assert result.candidates >= frechet._BATCH_MIN
        assert result.answers == brute.threshold_search(query, 0.01).answers
