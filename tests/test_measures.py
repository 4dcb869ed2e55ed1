"""Unit tests for the similarity measures (Definitions 2, 12, 13)."""

import math
import random

import pytest

from repro.measures import (
    DTW,
    DiscreteFrechet,
    Hausdorff,
    available_measures,
    discrete_frechet,
    dtw,
    get_measure,
    hausdorff,
)
from repro.measures.dtw import dtw_within
from repro.measures.frechet import discrete_frechet_within
from repro.measures.hausdorff import hausdorff_within
from repro.exceptions import QueryError


def walk(rng, n, start=(0.0, 0.0), step=0.1):
    x, y = start
    pts = [(x, y)]
    for _ in range(n - 1):
        x += rng.uniform(-step, step)
        y += rng.uniform(-step, step)
        pts.append((x, y))
    return pts


class TestRegistry:
    def test_available(self):
        assert available_measures() == ("dtw", "frechet", "hausdorff")

    def test_get_measure(self):
        assert isinstance(get_measure("frechet"), DiscreteFrechet)
        assert isinstance(get_measure("HAUSDORFF"), Hausdorff)
        assert isinstance(get_measure("dtw"), DTW)

    def test_unknown_raises(self):
        with pytest.raises(QueryError):
            get_measure("euclid")

    def test_lemma_flags(self):
        assert get_measure("frechet").supports_start_end_filter
        assert get_measure("dtw").supports_start_end_filter
        assert not get_measure("hausdorff").supports_start_end_filter


class TestDiscreteFrechet:
    def test_identical(self):
        pts = [(0, 0), (1, 0), (2, 1)]
        assert discrete_frechet(pts, pts) == 0.0

    def test_single_point_cases(self):
        # n == 1: max over the other sequence (Definition 2, case 1).
        assert discrete_frechet([(0, 0)], [(1, 0), (3, 0)]) == pytest.approx(3.0)
        assert discrete_frechet([(1, 0), (3, 0)], [(0, 0)]) == pytest.approx(3.0)

    def test_parallel_lines(self):
        a = [(0, 0), (1, 0), (2, 0)]
        b = [(0, 1), (1, 1), (2, 1)]
        assert discrete_frechet(a, b) == pytest.approx(1.0)

    def test_symmetric(self):
        rng = random.Random(1)
        a, b = walk(rng, 15), walk(rng, 22)
        assert discrete_frechet(a, b) == pytest.approx(discrete_frechet(b, a))

    def test_dominates_endpoint_distances(self):
        """Lemma 12 for Fréchet: D_F >= d(a1,b1) and >= d(an,bm)."""
        rng = random.Random(2)
        for _ in range(30):
            a, b = walk(rng, 8), walk(rng, 11, start=(0.5, 0.5))
            d = discrete_frechet(a, b)
            assert d >= math.dist(a[0], b[0]) - 1e-12
            assert d >= math.dist(a[-1], b[-1]) - 1e-12

    def test_dominates_hausdorff(self):
        """D_F >= D_H always (classical relation)."""
        rng = random.Random(3)
        for _ in range(30):
            a, b = walk(rng, 10), walk(rng, 10, start=(0.3, 0.1))
            assert discrete_frechet(a, b) >= hausdorff(a, b) - 1e-12

    def test_triangle_inequality(self):
        rng = random.Random(4)
        for _ in range(20):
            a, b, c = walk(rng, 6), walk(rng, 7), walk(rng, 8)
            assert discrete_frechet(a, c) <= (
                discrete_frechet(a, b) + discrete_frechet(b, c) + 1e-9
            )

    def test_known_value_reordering(self):
        # Zigzag against straight line.
        a = [(0, 0), (1, 1), (2, 0)]
        b = [(0, 0), (2, 0)]
        assert discrete_frechet(a, b) == pytest.approx(math.hypot(1, 1))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            discrete_frechet([], [(0, 0)])

    def test_within_agrees_with_exact(self):
        rng = random.Random(5)
        for _ in range(60):
            a, b = walk(rng, 10), walk(rng, 12, start=(0.2, -0.1))
            d = discrete_frechet(a, b)
            for eps in (d * 0.5, d, d * 1.5):
                assert discrete_frechet_within(a, b, eps) == (d <= eps + 1e-15)


class TestHausdorff:
    def test_identical(self):
        pts = [(0, 0), (1, 1)]
        assert hausdorff(pts, pts) == 0.0

    def test_subset_asymmetry_resolved_by_max(self):
        a = [(0, 0), (1, 0)]
        b = [(0, 0), (1, 0), (1, 5)]
        # Directed a->b is 0, directed b->a is 5; symmetric is 5.
        assert hausdorff(a, b) == pytest.approx(5.0)

    def test_symmetric(self):
        rng = random.Random(6)
        a, b = walk(rng, 9), walk(rng, 14)
        assert hausdorff(a, b) == pytest.approx(hausdorff(b, a))

    def test_order_invariant(self):
        """Hausdorff ignores sequence order — the reason Lemma 12 does
        not apply to it."""
        a = [(0, 0), (1, 0), (2, 0)]
        assert hausdorff(a, list(reversed(a))) == 0.0

    def test_within_agrees_with_exact(self):
        rng = random.Random(7)
        for _ in range(60):
            a, b = walk(rng, 10), walk(rng, 8, start=(0.4, 0.4))
            d = hausdorff(a, b)
            for eps in (d * 0.5, d, d * 2):
                assert hausdorff_within(a, b, eps) == (d <= eps + 1e-15)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            hausdorff([(0, 0)], [])


class TestDTW:
    def test_identical(self):
        pts = [(0, 0), (1, 0), (2, 0)]
        assert dtw(pts, pts) == 0.0

    def test_single_point_sums(self):
        # Definition 13 case n == 1: sum of distances.
        assert dtw([(0, 0)], [(1, 0), (2, 0)]) == pytest.approx(3.0)
        assert dtw([(1, 0), (2, 0)], [(0, 0)]) == pytest.approx(3.0)

    def test_known_alignment(self):
        a = [(0, 0), (1, 0)]
        b = [(0, 1), (1, 1)]
        assert dtw(a, b) == pytest.approx(2.0)

    def test_symmetric(self):
        rng = random.Random(8)
        a, b = walk(rng, 10), walk(rng, 13)
        assert dtw(a, b) == pytest.approx(dtw(b, a))

    def test_dominates_endpoint_distances(self):
        """Lemma 12 for DTW (Section VII-B)."""
        rng = random.Random(9)
        for _ in range(30):
            a, b = walk(rng, 7), walk(rng, 9, start=(0.2, 0.6))
            d = dtw(a, b)
            assert d >= math.dist(a[0], b[0]) - 1e-12
            assert d >= math.dist(a[-1], b[-1]) - 1e-12

    def test_dominates_frechet(self):
        """DTW sums >= max over the same optimal coupling, so DTW >= D_F."""
        rng = random.Random(10)
        for _ in range(30):
            a, b = walk(rng, 8), walk(rng, 8, start=(0.1, 0.1))
            assert dtw(a, b) >= discrete_frechet(a, b) - 1e-12

    def test_within_agrees_with_exact(self):
        rng = random.Random(11)
        for _ in range(60):
            a, b = walk(rng, 9), walk(rng, 10, start=(0.3, -0.2))
            d = dtw(a, b)
            for eps in (d * 0.5, d, d * 1.5):
                assert dtw_within(a, b, eps) == (d <= eps + 1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            dtw([], [(0, 0)])


class TestLemma5:
    """Every measure must dominate each point's nearest-neighbour
    distance (Lemma 5 / Section VII proofs)."""

    @pytest.mark.parametrize("name", ["frechet", "hausdorff", "dtw"])
    def test_point_lower_bound(self, name):
        measure = get_measure(name)
        rng = random.Random(12)
        for _ in range(30):
            a, b = walk(rng, 8), walk(rng, 9, start=(0.5, 0.2))
            d = measure.distance(a, b)
            for t in a:
                nearest = min(math.dist(t, q) for q in b)
                assert d >= nearest - 1e-12
            for t in b:
                nearest = min(math.dist(t, q) for q in a)
                assert d >= nearest - 1e-12
