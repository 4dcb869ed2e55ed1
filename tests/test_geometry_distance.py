"""Unit tests for the distance kernels (soundness-critical)."""

import math

import pytest

from repro.geometry.distance import (
    point_distance,
    point_polyline_distance,
    point_rect_distance,
    point_segment_distance,
    rect_polyline_distance,
    segment_distance,
    segment_rect_distance,
    segments_intersect,
)
from repro.geometry.mbr import MBR
from repro.geometry.point import Point


class TestPointSegment:
    def test_projection_inside(self):
        assert point_segment_distance((1, 1), (0, 0), (2, 0)) == pytest.approx(1.0)

    def test_projection_clamped_to_endpoint(self):
        assert point_segment_distance((5, 1), (0, 0), (2, 0)) == pytest.approx(
            math.hypot(3, 1)
        )

    def test_degenerate_segment(self):
        assert point_segment_distance((3, 4), (0, 0), (0, 0)) == pytest.approx(5.0)

    def test_point_on_segment(self):
        assert point_segment_distance((1, 0), (0, 0), (2, 0)) == 0.0


class TestSegmentsIntersect:
    def test_crossing(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_touching_endpoint(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))

    def test_collinear_overlapping(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_parallel_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))


class TestSegmentDistance:
    def test_intersecting_is_zero(self):
        assert segment_distance((0, 0), (2, 2), (0, 2), (2, 0)) == 0.0

    def test_parallel(self):
        assert segment_distance((0, 0), (1, 0), (0, 1), (1, 1)) == pytest.approx(1.0)

    def test_endpoint_to_interior(self):
        d = segment_distance((0, 0), (1, 0), (2, -1), (2, 1))
        assert d == pytest.approx(1.0)

    def test_symmetric(self):
        a = segment_distance((0, 0), (1, 2), (3, 3), (4, 1))
        b = segment_distance((3, 3), (4, 1), (0, 0), (1, 2))
        assert a == pytest.approx(b)


class TestSegmentRect:
    def test_endpoint_inside(self):
        rect = MBR(0, 0, 2, 2)
        assert segment_rect_distance((1, 1), (5, 5), rect) == 0.0

    def test_crossing_without_endpoint_inside(self):
        rect = MBR(0, 0, 2, 2)
        assert segment_rect_distance((-1, 1), (3, 1), rect) == 0.0

    def test_disjoint(self):
        rect = MBR(0, 0, 1, 1)
        assert segment_rect_distance((3, 0), (3, 1), rect) == pytest.approx(2.0)


class TestPolylines:
    def test_point_polyline_vertices_only(self):
        line = [(0, 0), (2, 0)]
        # Vertex distance: nearest vertex is at distance sqrt(2);
        # the continuous segment would give 1.
        assert point_polyline_distance((1, 1), line) == pytest.approx(math.sqrt(2))
        assert point_polyline_distance((1, 1), line, vertices_only=False) == (
            pytest.approx(1.0)
        )

    def test_rect_polyline_vertices_only(self):
        rect = MBR(0.9, 0.9, 1.1, 1.1)
        line = [(0, 1), (2, 1)]
        # Vertices are 0.9 away horizontally; the segment crosses the rect.
        assert rect_polyline_distance(rect, line) == pytest.approx(0.9)
        assert rect_polyline_distance(rect, line, vertices_only=False) == 0.0

    def test_empty_polyline_raises(self):
        with pytest.raises(ValueError):
            point_polyline_distance((0, 0), [])

