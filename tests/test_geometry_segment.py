"""Unit tests for Segment and OrientedBox."""

import math
import random

import pytest

from repro.exceptions import GeometryError
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.geometry.segment import Segment
from tests.write_path_oracle import OrientedBox


class TestSegment:
    def test_length(self):
        assert Segment(Point(0, 0), Point(3, 4)).length == pytest.approx(5.0)

    def test_mbr(self):
        seg = Segment(Point(2, 1), Point(0, 3))
        assert seg.mbr() == MBR(0, 1, 2, 3)

    def test_distance_to_point(self):
        seg = Segment(Point(0, 0), Point(2, 0))
        assert seg.distance_to_point(Point(1, 2)) == pytest.approx(2.0)


class TestOrientedBoxCover:
    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            OrientedBox.cover([])

    def test_single_point_degenerate(self):
        box = OrientedBox.cover([(1.0, 2.0)])
        assert box.distance_to_point(1.0, 2.0) == 0.0
        assert box.distance_to_point(1.0, 3.0) == pytest.approx(1.0)

    def test_covers_all_input_points(self):
        rng = random.Random(11)
        for _ in range(50):
            pts = [(rng.random(), rng.random()) for _ in range(rng.randint(2, 12))]
            box = OrientedBox.cover(pts)
            for x, y in pts:
                assert box.distance_to_point(x, y) == pytest.approx(0.0, abs=1e-9)
                assert box.contains_point(x, y, tol=1e-9)

    def test_diagonal_run_is_tight(self):
        """A diagonal run should produce a thin rotated box, far tighter
        than its axis-aligned envelope."""
        pts = [(i * 0.1, i * 0.1 + (0.001 if i % 2 else -0.001)) for i in range(20)]
        box = OrientedBox.cover(pts)
        envelope = box.mbr()
        # The rotated box is thin: a point off the diagonal but inside
        # the axis-aligned envelope must be far from the oriented box.
        assert box.distance_to_point(1.0, 0.2) > 0.3
        assert envelope.contains_point(1.0, 0.2)

    def test_each_edge_touches_a_point(self):
        """Tightness contract used by Lemma 14: every edge of the box
        carries at least one covered point."""
        rng = random.Random(5)
        for _ in range(30):
            pts = [(rng.random(), rng.random()) for _ in range(rng.randint(2, 10))]
            box = OrientedBox.cover(pts)
            for e0, e1 in box.edges():
                nearest = min(
                    min(
                        _point_seg(px, py, e0, e1)
                        for px, py in pts
                    )
                    for _ in [0]
                )
                assert nearest == pytest.approx(0.0, abs=1e-9)


def _point_seg(px, py, a, b):
    from repro.geometry.distance import point_segment_distance

    return point_segment_distance((px, py), (a.x, a.y), (b.x, b.y))


class TestOrientedBoxDistance:
    def test_distance_outside_along_axis(self):
        box = OrientedBox.cover([(0, 0), (2, 0)])
        assert box.distance_to_point(3.0, 0.0) == pytest.approx(1.0)

    def test_distance_perpendicular(self):
        box = OrientedBox.cover([(0, 0), (2, 0)])
        assert box.distance_to_point(1.0, 0.5) == pytest.approx(0.5)

    def test_rotated_frame_distance(self):
        # Box along the diagonal; a point perpendicular to it.
        box = OrientedBox.cover([(0, 0), (1, 1)])
        d = box.distance_to_point(0.0, 1.0)
        assert d == pytest.approx(math.sqrt(2) / 2)

    def test_distance_to_segment_zero_when_crossing(self):
        box = OrientedBox.cover([(0, 0), (2, 0), (2, 1), (0, 1)])
        assert box.distance_to_segment(Point(1, -1), Point(1, 2)) == 0.0

    def test_distance_to_segment_endpoint_inside(self):
        box = OrientedBox.cover([(0, 0), (2, 0), (2, 1)])
        assert box.distance_to_segment(Point(1.5, 0.2), Point(9, 9)) == 0.0

    def test_distance_to_segment_disjoint_exact(self):
        box = OrientedBox.cover([(0, 0), (2, 0)])
        d = box.distance_to_segment(Point(0, 2), Point(2, 2))
        assert d == pytest.approx(2.0)

    def test_distance_never_exceeds_point_distances(self):
        """Exactness: segment distance is <= distance of any point on
        the segment (sampled), and >= 0."""
        rng = random.Random(23)
        for _ in range(40):
            pts = [(rng.random(), rng.random()) for _ in range(4)]
            box = OrientedBox.cover(pts)
            a = Point(rng.random() + 1.5, rng.random())
            b = Point(rng.random() + 1.5, rng.random() + 1)
            d = box.distance_to_segment(a, b)
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                x = a.x + (b.x - a.x) * t
                y = a.y + (b.y - a.y) * t
                assert d <= box.distance_to_point(x, y) + 1e-9

    def test_corners_and_mbr_consistent(self):
        box = OrientedBox.cover([(0, 0), (1, 1), (0.5, 0.8)])
        envelope = box.mbr()
        for corner in box.corners():
            assert envelope.contains_point(corner.x, corner.y)
