"""Edge-case tests for the best-first top-k search."""

import math
import random

import pytest

from repro import TraSS, TraSSConfig, Trajectory, SpaceBounds
from repro.measures import discrete_frechet, get_measure

BOUNDS = SpaceBounds(0, 0, 1, 1)


def build(data, **kw):
    defaults = dict(bounds=BOUNDS, max_resolution=10, shards=2)
    defaults.update(kw)
    return TraSS.build(data, TraSSConfig(**defaults))


class TestTies:
    def test_tied_distances_still_return_k(self):
        pts = [(0.4, 0.4), (0.42, 0.41)]
        data = [Trajectory(f"same{i}", pts) for i in range(6)]
        data.append(Trajectory("far", [(0.9, 0.9), (0.92, 0.9)]))
        engine = build(data)
        result = engine.topk_search(data[0], 4)
        assert len(result.answers) == 4
        assert all(d == pytest.approx(0.0) for d, _ in result.answers)

    def test_k_straddles_tie_boundary(self):
        """When the k-th and (k+1)-th distances tie, any valid subset is
        acceptable but distances must match brute force exactly."""
        near = [(0.5, 0.5), (0.51, 0.5)]
        data = [Trajectory("q", near)]
        data += [
            Trajectory(f"tie{i}", [(0.6, 0.5), (0.61, 0.5)]) for i in range(3)
        ]
        engine = build(data)
        result = engine.topk_search(data[0], 2)
        want = sorted(
            discrete_frechet(data[0].points, t.points) for t in data
        )[:2]
        assert [round(d, 9) for d, _ in result.answers] == [
            round(d, 9) for d in want
        ]


class TestDegenerateStores:
    def test_single_trajectory_store(self):
        data = [Trajectory("only", [(0.3, 0.3), (0.31, 0.3)])]
        engine = build(data)
        result = engine.topk_search(data[0], 3)
        assert [tid for _, tid in result.answers] == ["only"]

    def test_all_stationary_store(self):
        data = [
            Trajectory(f"s{i}", [(0.2 + 0.01 * i, 0.2)] * 3) for i in range(10)
        ]
        engine = build(data, max_resolution=8)
        q = data[4]
        result = engine.topk_search(q, 3)
        want = sorted(
            (discrete_frechet(q.points, t.points), t.tid) for t in data
        )[:3]
        assert [round(d, 9) for d, _ in result.answers] == [
            round(d, 9) for d, _ in want
        ]

    def test_query_not_in_store(self):
        rng = random.Random(1)
        data = [
            Trajectory(
                f"t{i}",
                [(0.5 + rng.uniform(-0.05, 0.05), 0.5 + rng.uniform(-0.05, 0.05))
                 for _ in range(4)],
            )
            for i in range(30)
        ]
        engine = build(data)
        q = Trajectory("external", [(0.52, 0.5), (0.54, 0.51)])
        result = engine.topk_search(q, 5)
        want = sorted(
            (discrete_frechet(q.points, t.points), t.tid) for t in data
        )[:5]
        assert [round(d, 9) for d, _ in result.answers] == [
            round(d, 9) for d, _ in want
        ]


class TestMeasuresInTopK:
    def test_hausdorff_finds_reversed_twin(self):
        """Under Hausdorff the reversed twin is at distance 0 and must
        rank first; under Fréchet it is far."""
        forward = [(0.1 * i + 0.1, 0.3) for i in range(5)]
        data = [
            Trajectory("fwd", forward),
            Trajectory("rev", list(reversed(forward))),
            Trajectory("far", [(0.9, 0.9), (0.92, 0.9)]),
        ]
        engine = build(data)
        q = Trajectory("q", forward)
        hausdorff_top = engine.topk_search(q, 2, measure="hausdorff")
        assert {tid for _, tid in hausdorff_top.answers} == {"fwd", "rev"}
        frechet_top = engine.topk_search(q, 1, measure="frechet")
        assert frechet_top.answers[0][1] == "fwd"

    def test_dtw_ranking_matches_brute(self):
        rng = random.Random(2)
        data = [
            Trajectory(
                f"t{i}",
                [(0.4 + rng.uniform(-0.03, 0.03), 0.4 + rng.uniform(-0.03, 0.03))
                 for _ in range(6)],
            )
            for i in range(25)
        ]
        engine = build(data)
        m = get_measure("dtw")
        q = data[3]
        got = engine.topk_search(q, 5, measure="dtw")
        want = sorted((m.distance(q.points, t.points), t.tid) for t in data)[:5]
        assert [round(d, 9) for d, _ in got.answers] == [
            round(d, 9) for d, _ in want
        ]


class TestAccountingInvariants:
    def test_retrieved_at_least_candidates(self):
        rng = random.Random(3)
        data = [
            Trajectory(
                f"t{i}",
                [(rng.random() * 0.9, rng.random() * 0.9)] * 2,
            )
            for i in range(50)
        ]
        engine = build(data)
        result = engine.topk_search(data[0], 5)
        assert result.retrieved_rows >= result.candidates
        assert result.candidates >= len(result.answers)
        assert result.units_scanned >= 1
        assert result.total_seconds >= 0

    def test_worst_distance_is_last_answer_distance(self):
        engine = build([Trajectory("x", [(0.1, 0.1)])])
        result = engine.topk_search(Trajectory("q", [(0.9, 0.9)]), 1)
        assert result.worst_distance == result.answers[-1][0]

    def test_worst_distance_of_empty_store(self):
        engine = build([])
        result = engine.topk_search(Trajectory("q", [(0.9, 0.9)]), 1)
        assert result.answers == []
        assert result.worst_distance == math.inf
