"""Correctness tests for threshold and top-k search against brute force.

These are the library's acceptance tests: for random datasets and
queries, Algorithm 3 and Algorithm 4 must return exactly the brute-force
answer set under every measure.
"""

import math
import random
import sys

import pytest

from repro import TraSS, TraSSConfig, Trajectory, SpaceBounds
from repro.exceptions import QueryError
from repro.measures import get_measure

BOUNDS = SpaceBounds(0, 0, 1, 1)


def build_engine(rng, n=120, max_resolution=8, cluster=False):
    cfg = TraSSConfig(
        bounds=BOUNDS, max_resolution=max_resolution, dp_tolerance=0.005, shards=3
    )
    data = []
    for i in range(n):
        if cluster and i % 3 == 0:
            x, y = 0.45 + rng.uniform(-0.03, 0.03), 0.45 + rng.uniform(-0.03, 0.03)
        else:
            x, y = rng.random() * 0.9, rng.random() * 0.9
        pts = [(x, y)]
        for _ in range(rng.randint(2, 20)):
            x = min(0.999, max(0.0, x + rng.uniform(-0.01, 0.01)))
            y = min(0.999, max(0.0, y + rng.uniform(-0.01, 0.01)))
            pts.append((x, y))
        data.append(Trajectory(f"t{i}", pts))
    return TraSS.build(data, cfg), data


class TestThresholdCorrectness:
    @pytest.mark.parametrize("measure", ["frechet", "hausdorff", "dtw"])
    def test_matches_brute_force(self, measure):
        rng = random.Random(31)
        engine, data = build_engine(rng, cluster=True)
        m = get_measure(measure)
        for trial in range(8):
            q = data[rng.randrange(len(data))]
            eps = rng.choice([0.01, 0.05, 0.1])
            got = set(engine.threshold_search(q, eps, measure=measure).answers)
            want = {
                t.tid for t in data if m.distance(q.points, t.points) <= eps
            }
            assert got == want, (measure, trial, q.tid)

    def test_reported_distances_are_exact(self):
        rng = random.Random(32)
        engine, data = build_engine(rng, n=60, cluster=True)
        m = get_measure("frechet")
        q = data[0]
        result = engine.threshold_search(q, 0.08)
        for tid, dist in result.answers.items():
            t = next(t for t in data if t.tid == tid)
            assert dist == pytest.approx(m.distance(q.points, t.points))

    def test_query_always_finds_itself(self):
        rng = random.Random(33)
        engine, data = build_engine(rng, n=50)
        for q in data[:10]:
            assert q.tid in engine.threshold_search(q, 0.0).answers

    def test_eps_zero_exact_duplicates_only(self):
        rng = random.Random(34)
        engine, data = build_engine(rng, n=40)
        q = data[5]
        result = engine.threshold_search(q, 0.0)
        assert set(result.answers) == {
            t.tid for t in data if t.points == q.points
        }

    @pytest.mark.parametrize("measure", ["frechet", "hausdorff", "dtw"])
    @pytest.mark.parametrize("eps", [1e160, 1e300, sys.float_info.max])
    def test_huge_finite_eps_answers_like_inf(self, measure, eps):
        """Squaring a huge relaxed threshold overflows to inf, not to an
        ``OverflowError``; every stored trajectory is then an answer."""
        rng = random.Random(37)
        engine, data = build_engine(rng, n=30)
        queries = data[:3]
        want = [
            engine.threshold_search(q, math.inf, measure=measure).answers
            for q in queries
        ]
        assert all(len(answers) == len(data) for answers in want)
        single = [
            engine.threshold_search(q, eps, measure=measure).answers
            for q in queries
        ]
        batch = [
            result.answers
            for result in engine.threshold_search_many(
                queries, eps, measure=measure
            )
        ]
        assert single == want
        assert batch == want

    def test_result_accounting(self):
        rng = random.Random(35)
        engine, data = build_engine(rng, n=60, cluster=True)
        result = engine.threshold_search(data[0], 0.05)
        assert result.candidates >= len(result.answers)
        assert result.retrieved_rows >= result.candidates
        assert 0.0 <= result.precision <= 1.0
        assert result.total_seconds >= 0.0

    def test_negative_eps_rejected(self):
        rng = random.Random(36)
        engine, data = build_engine(rng, n=10)
        with pytest.raises(QueryError):
            engine.threshold_search(data[0], -0.1)


class TestTopKCorrectness:
    @pytest.mark.parametrize("measure", ["frechet", "hausdorff", "dtw"])
    def test_matches_brute_force(self, measure):
        rng = random.Random(41)
        engine, data = build_engine(rng, cluster=True)
        m = get_measure(measure)
        for trial in range(4):
            q = data[rng.randrange(len(data))]
            k = rng.choice([1, 5, 10])
            got = engine.topk_search(q, k, measure=measure)
            want = sorted(
                (m.distance(q.points, t.points), t.tid) for t in data
            )[:k]
            got_d = [round(d, 9) for d, _ in got.answers]
            want_d = [round(d, 9) for d, _ in want]
            assert got_d == want_d, (measure, trial)

    def test_k_one_is_self_for_member_query(self):
        rng = random.Random(42)
        engine, data = build_engine(rng, n=50)
        q = data[7]
        result = engine.topk_search(q, 1)
        assert result.answers[0][0] == pytest.approx(0.0)

    def test_k_larger_than_dataset(self):
        rng = random.Random(43)
        engine, data = build_engine(rng, n=20)
        result = engine.topk_search(data[0], 100)
        assert len(result.answers) == 20
        # Ascending distances.
        dists = [d for d, _ in result.answers]
        assert dists == sorted(dists)

    def test_invalid_k_rejected(self):
        rng = random.Random(44)
        engine, data = build_engine(rng, n=10)
        with pytest.raises(QueryError):
            engine.topk_search(data[0], 0)

    def test_accounting(self):
        rng = random.Random(45)
        engine, data = build_engine(rng, n=60, cluster=True)
        result = engine.topk_search(data[0], 5)
        assert result.candidates >= 5
        assert result.units_scanned > 0
        assert result.worst_distance == result.answers[-1][0]


class TestEngineSurface:
    def test_build_and_len(self):
        rng = random.Random(51)
        engine, data = build_engine(rng, n=25)
        assert len(engine) == 25

    def test_stats(self):
        rng = random.Random(52)
        engine, _ = build_engine(rng, n=25)
        stats = engine.stats()
        assert stats["trajectories"] == 25
        assert stats["distinct_index_values"] >= 1
        assert "io" in stats

    def test_plan_exposed(self):
        rng = random.Random(53)
        engine, data = build_engine(rng, n=25)
        plan = engine.plan(data[0], 0.02)
        assert plan.ranges

    def test_range_query(self):
        rng = random.Random(54)
        engine, data = build_engine(rng, n=80)
        from repro.geometry.mbr import MBR

        window = MBR(0.3, 0.3, 0.6, 0.6)
        got = set(engine.range_query(window))
        want = {
            t.tid
            for t in data
            if any(window.contains_point(x, y) for x, y in t.points)
        }
        assert got == want

    def test_unknown_measure_rejected(self):
        rng = random.Random(55)
        engine, data = build_engine(rng, n=10)
        with pytest.raises(QueryError):
            engine.threshold_search(data[0], 0.1, measure="cosine")
