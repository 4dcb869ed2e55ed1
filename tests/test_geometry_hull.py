"""Tests for convex hulls and minimum-area oriented rectangles."""

import math
import random

import pytest

from repro.exceptions import GeometryError
from repro.features.dp_features import MIN_AREA_BOXES, extract_dp_features
from repro.geometry.hull import (
    convex_hull,
    min_area_oriented_box,
    min_area_rect,
)
from repro.geometry.segment import OrientedBox
from tests import box_oracle


def random_points(rng, n):
    return [(rng.random(), rng.random()) for _ in range(n)]


class TestConvexHull:
    def test_triangle(self):
        pts = [(0, 0), (1, 0), (0.5, 1), (0.5, 0.3)]  # last is interior
        hull = convex_hull(pts)
        assert set(hull) == {(0, 0), (1, 0), (0.5, 1)}

    def test_counter_clockwise(self):
        hull = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        # Shoelace area must be positive for CCW order.
        area = sum(
            hull[i][0] * hull[(i + 1) % len(hull)][1]
            - hull[(i + 1) % len(hull)][0] * hull[i][1]
            for i in range(len(hull))
        )
        assert area > 0

    def test_single_point(self):
        assert convex_hull([(2, 3), (2, 3)]) == [(2.0, 3.0)]

    def test_collinear(self):
        hull = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert hull == [(0.0, 0.0), (3.0, 3.0)]

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            convex_hull([])

    def test_hull_contains_all_points(self):
        rng = random.Random(1)
        for _ in range(30):
            pts = random_points(rng, rng.randint(3, 40))
            hull = convex_hull(pts)
            # Every point inside or on the hull: all cross products of
            # consecutive hull edges vs point stay non-negative.
            for p in pts:
                for i in range(len(hull)):
                    a, b = hull[i], hull[(i + 1) % len(hull)]
                    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (
                        p[0] - a[0]
                    )
                    assert cross >= -1e-9


class TestMinAreaRect:
    def test_axis_aligned_square(self):
        pts = [(0, 0), (2, 0), (2, 1), (0, 1)]
        _, _, length, width = min_area_rect(pts)
        assert sorted([length, width]) == pytest.approx([1.0, 2.0])

    def test_rotated_rectangle_recovered(self):
        # A thin rectangle at 45 degrees.
        pts = []
        for s in (0.0, 0.5, 1.0):
            for t in (0.0, 0.05):
                pts.append(
                    (
                        s * math.cos(math.pi / 4) - t * math.sin(math.pi / 4),
                        s * math.sin(math.pi / 4) + t * math.cos(math.pi / 4),
                    )
                )
        _, axis, length, width = min_area_rect(pts)
        assert min(length, width) == pytest.approx(0.05, abs=1e-9)
        assert abs(abs(axis[0]) - math.cos(math.pi / 4)) < 1e-9

    def test_covers_and_is_no_larger_than_chord_box(self):
        rng = random.Random(2)
        for _ in range(40):
            pts = random_points(rng, rng.randint(2, 25))
            box = min_area_oriented_box(pts)
            for x, y in pts:
                assert box.distance_to_point(x, y) == pytest.approx(
                    0.0, abs=1e-9
                )
            chord = OrientedBox.cover(pts)
            min_area = (box.length - box.lo_along) * (
                box.hi_perp - box.lo_perp
            )
            chord_area = (chord.length - chord.lo_along) * (
                chord.hi_perp - chord.lo_perp
            )
            assert min_area <= chord_area + 1e-9

    def test_single_point(self):
        anchor, _, length, width = min_area_rect([(3, 4)])
        assert anchor == (3.0, 4.0)
        assert length == 0.0 and width == 0.0


class TestMinAreaFeatures:
    def test_mode_validation(self):
        with pytest.raises(GeometryError):
            extract_dp_features([(0, 0)], 0.1, box_mode="spherical")

    def test_min_area_features_cover_points(self):
        rng = random.Random(3)
        pts = random_points(rng, 40)
        features = extract_dp_features(pts, 0.05, box_mode=MIN_AREA_BOXES)
        for x, y in pts:
            assert box_oracle.point_to_boxes_distance(features, x, y) <= 1e-9

    def test_min_area_bound_still_sound(self):
        """Lemma 13/14 bounds under min-area boxes never exceed the
        exact distance."""
        from repro.measures import discrete_frechet

        rng = random.Random(4)
        for _ in range(20):
            a = random_points(rng, rng.randint(3, 20))
            b = [(x + 0.3, y) for x, y in random_points(rng, 15)]
            fa = extract_dp_features(a, 0.05, box_mode=MIN_AREA_BOXES)
            fb = extract_dp_features(b, 0.05, box_mode=MIN_AREA_BOXES)
            exact = discrete_frechet(a, b)
            for px, py in fa.rep_points:
                assert box_oracle.point_to_boxes_distance(fb, px, py) <= exact + 1e-9
            assert box_oracle.box_lower_bound_against(fa, fb) <= exact + 1e-9

    def test_min_area_filter_at_least_as_tight(self):
        """Minimum-area boxes give bounds at least as strong as chord
        boxes (they are subsets of any same-run covering box? not
        exactly — but never larger in area; compare bound quality on
        average)."""
        from repro.measures import discrete_frechet

        rng = random.Random(5)
        chord_bounds = []
        min_bounds = []
        for _ in range(20):
            a = random_points(rng, 15)
            b = [(x + 0.5, y) for x, y in random_points(rng, 15)]
            fa_c = extract_dp_features(a, 0.03)
            fb_c = extract_dp_features(b, 0.03)
            fa_m = extract_dp_features(a, 0.03, box_mode=MIN_AREA_BOXES)
            fb_m = extract_dp_features(b, 0.03, box_mode=MIN_AREA_BOXES)
            chord_bounds.append(box_oracle.box_lower_bound_against(fa_c, fb_c))
            min_bounds.append(box_oracle.box_lower_bound_against(fa_m, fb_m))
        assert sum(min_bounds) >= sum(chord_bounds) - 1e-6
