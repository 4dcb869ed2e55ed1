"""Unit tests for repro.geometry.trajectory."""

import pytest

from repro.exceptions import GeometryError
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.geometry.trajectory import Trajectory


class TestTrajectory:
    def test_basic(self):
        t = Trajectory("a", [(0, 0), (1, 1)])
        assert t.tid == "a"
        assert len(t) == 2
        assert t[0] == (0.0, 0.0)
        assert list(t) == [(0.0, 0.0), (1.0, 1.0)]

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            Trajectory("a", [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_coordinate_raises(self, bad, axis):
        point = (bad, 1.0) if axis == 0 else (1.0, bad)
        for points in ([point, (2, 3)], [(2, 3), point], [point]):
            with pytest.raises(GeometryError, match="non-finite"):
                Trajectory("x", points)

    def test_opposite_infinities_raise(self):
        with pytest.raises(GeometryError, match="non-finite"):
            Trajectory("x", [(float("inf"), 0.0), (float("-inf"), 0.0)])

    def test_huge_finite_coordinates_are_legal(self):
        # Large is not non-finite.
        t = Trajectory("big", [(1.7e308, 1.7e308), (1.7e308, -1.7e308)])
        assert len(t) == 2

    def test_single_point_is_legal(self):
        t = Trajectory("ping", [(116.4, 39.9)])
        assert len(t) == 1
        assert t.segments() == []

    def test_mbr_memoised(self):
        t = Trajectory("a", [(0, 1), (2, 0), (1, 3)])
        assert t.mbr == MBR(0, 0, 2, 3)
        assert t.mbr is t.mbr  # cached object identity

    def test_start_end(self):
        t = Trajectory("a", [(0, 0), (1, 1), (2, 0)])
        assert t.start == Point(0, 0)
        assert t.end == Point(2, 0)

    def test_prefix_matches_paper_definition(self):
        # T^3 = (t1, t2, t3) for 1-based prefix indexing.
        t = Trajectory("a", [(i, i) for i in range(10)])
        p = t.prefix(3)
        assert len(p) == 3
        assert p.points == ((0, 0), (1, 1), (2, 2))

    def test_prefix_bounds(self):
        t = Trajectory("a", [(0, 0), (1, 1)])
        with pytest.raises(GeometryError):
            t.prefix(0)
        with pytest.raises(GeometryError):
            t.prefix(3)

    def test_segments(self):
        t = Trajectory("a", [(0, 0), (1, 0), (1, 1)])
        assert t.segments() == [((0, 0), (1, 0)), ((1, 0), (1, 1))]

    def test_is_stationary(self):
        assert Trajectory("s", [(1, 1)] * 5).is_stationary()
        assert not Trajectory("m", [(1, 1), (1.1, 1)]).is_stationary()
        assert Trajectory("j", [(1, 1), (1.0001, 1)]).is_stationary(tol=0.001)

    def test_translated(self):
        t = Trajectory("a", [(0, 0), (1, 1)]).translated(1, 2, tid="b")
        assert t.tid == "b"
        assert t.points == ((1, 2), (2, 3))

    def test_equality_and_hash(self):
        a = Trajectory("x", [(0, 0)])
        b = Trajectory("x", [(0, 0)])
        c = Trajectory("y", [(0, 0)])
        assert a == b
        assert a != c
        assert len({a, b, c}) == 2

    def test_points_are_immutable_tuple(self):
        source = [(0, 0), (1, 1)]
        t = Trajectory("a", source)
        source.append((2, 2))
        assert len(t) == 2
        assert isinstance(t.points, tuple)
