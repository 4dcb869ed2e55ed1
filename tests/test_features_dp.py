"""Unit tests for Douglas-Peucker and DP features (Section IV-D)."""

import math
import random

import pytest

from repro.exceptions import GeometryError
from repro.features.douglas_peucker import douglas_peucker, douglas_peucker_mask
from repro.features.dp_features import extract_dp_features
from repro.geometry.distance import point_segment_distance
from tests import box_oracle


def walk(rng, n, step=0.05):
    x = y = 0.0
    pts = [(x, y)]
    for _ in range(n - 1):
        x += rng.uniform(-step, step)
        y += rng.uniform(-step, step)
        pts.append((x, y))
    return pts


class TestDouglasPeucker:
    def test_endpoints_always_kept(self):
        pts = [(0, 0), (1, 5), (2, 0)]
        kept = douglas_peucker(pts, theta=100.0)
        assert kept[0] == 0
        assert kept[-1] == 2

    def test_straight_line_collapses(self):
        pts = [(i, 0) for i in range(10)]
        assert douglas_peucker(pts, theta=0.01) == [0, 9]

    def test_zigzag_keeps_extremes(self):
        pts = [(0, 0), (1, 1), (2, 0), (3, -1), (4, 0)]
        kept = douglas_peucker(pts, theta=0.5)
        assert 1 in kept and 3 in kept

    def test_tolerance_monotone(self):
        rng = random.Random(1)
        pts = walk(rng, 60)
        sizes = [len(douglas_peucker(pts, theta)) for theta in (0.001, 0.01, 0.1)]
        assert sizes == sorted(sizes, reverse=True)

    def test_error_bound_holds(self):
        """Every dropped point is within theta of its covering chord."""
        rng = random.Random(2)
        for _ in range(20):
            pts = walk(rng, 40)
            theta = 0.02
            kept = douglas_peucker(pts, theta)
            for a, b in zip(kept, kept[1:]):
                for i in range(a + 1, b):
                    d = point_segment_distance(pts[i], pts[a], pts[b])
                    assert d <= theta + 1e-12

    def test_single_point(self):
        assert douglas_peucker([(1, 1)], 0.1) == [0]

    def test_two_points(self):
        assert douglas_peucker([(0, 0), (1, 1)], 0.1) == [0, 1]

    def test_negative_tolerance_raises(self):
        with pytest.raises(ValueError):
            douglas_peucker([(0, 0)], -1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            douglas_peucker_mask([], [], 0.1)


class TestDPFeatures:
    def test_counts(self):
        rng = random.Random(3)
        pts = walk(rng, 50)
        features = extract_dp_features(pts, theta=0.02)
        assert features.num_boxes == features.num_rep_points - 1
        assert features.rep_points[0] == pts[0]
        assert features.rep_points[-1] == pts[-1]

    def test_boxes_cover_every_raw_point(self):
        """Soundness contract of Lemma 13: the box union covers T."""
        rng = random.Random(4)
        for _ in range(30):
            pts = walk(rng, rng.randint(2, 80))
            features = extract_dp_features(pts, theta=0.03)
            for x, y in pts:
                assert box_oracle.point_to_boxes_distance(features, x, y) == pytest.approx(
                    0.0, abs=1e-9
                )

    def test_single_point_trajectory(self):
        features = extract_dp_features([(1.0, 2.0)], theta=0.01)
        assert features.num_rep_points == 1
        assert features.num_boxes == 1
        assert box_oracle.point_to_boxes_distance(features, 1.0, 2.0) == 0.0

    def test_stationary_trajectory(self):
        features = extract_dp_features([(1.0, 2.0)] * 8, theta=0.01)
        assert box_oracle.point_to_boxes_distance(features, 1.0, 2.0) == 0.0
        assert box_oracle.point_to_boxes_distance(features, 1.0, 3.0) == pytest.approx(1.0)

    def test_far_point_distance_positive(self):
        pts = [(0, 0), (1, 0), (2, 0)]
        features = extract_dp_features(pts, theta=0.01)
        assert box_oracle.point_to_boxes_distance(features, 1.0, 5.0) == pytest.approx(
            5.0, rel=1e-6
        )

    def test_lemma13_lower_bound_vs_frechet(self):
        """max over p in T1.P of d(p, T2.B) never exceeds D_F(T1, T2)."""
        from repro.measures import discrete_frechet

        rng = random.Random(5)
        for _ in range(30):
            a = walk(rng, rng.randint(2, 30))
            b = [(x + rng.uniform(0, 0.4), y) for x, y in walk(rng, 25)]
            fa = extract_dp_features(a, theta=0.02)
            fb = extract_dp_features(b, theta=0.02)
            exact = discrete_frechet(a, b)
            for px, py in fa.rep_points:
                assert box_oracle.point_to_boxes_distance(fb, px, py) <= exact + 1e-9
            for px, py in fb.rep_points:
                assert box_oracle.point_to_boxes_distance(fa, px, py) <= exact + 1e-9

    def test_lemma14_lower_bound_vs_frechet(self):
        """The box-edge bound never exceeds the exact distance."""
        from repro.measures import discrete_frechet

        rng = random.Random(6)
        for _ in range(30):
            a = walk(rng, rng.randint(3, 25))
            b = [(x + rng.uniform(0, 0.5), y) for x, y in walk(rng, 20)]
            fa = extract_dp_features(a, theta=0.02)
            fb = extract_dp_features(b, theta=0.02)
            exact = discrete_frechet(a, b)
            assert box_oracle.box_lower_bound_against(fa, fb) <= exact + 1e-9
            assert box_oracle.box_lower_bound_against(fb, fa) <= exact + 1e-9
            # exceeds_box_bound must agree with the bound value.
            assert box_oracle.exceeds_box_bound(fa, fb, exact + 1e-9) is False

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            extract_dp_features([], 0.1)
