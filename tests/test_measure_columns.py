"""A measure gives the same floats whatever carries a side's points.

The kernels read a ``Trajectory``'s coordinate columns (extracted
once) or a stored ``TrajectoryRecord``'s (sliced from its decoded flat
coordinates), and convert a plain point list on every call.  ``distance``, ``distance_within`` and ``upper_bound`` must
return ``==`` values for every pairing of the three, single points and
integer coordinates included.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import given, settings, strategies as st

from repro.core.codec import encode_row
from repro.core.storage import TrajectoryRecord
from repro.features.dp_features import extract_dp_features
from repro.geometry.trajectory import Trajectory
from repro.measures import get_measure

MEASURES = [get_measure(name) for name in ("frechet", "dtw", "hausdorff")]

coordinate_st = st.one_of(
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    st.integers(-50, 50),
)
points_st = st.lists(
    st.tuples(coordinate_st, coordinate_st), min_size=1, max_size=16
)


def _record(tid, points) -> TrajectoryRecord:
    floats = Trajectory(tid, points).points
    blob = encode_row(tid, floats, extract_dp_features(floats, 0.5))
    return TrajectoryRecord.from_row(blob)


def _sides(tid, points):
    """The same points as a plain list, a ``Trajectory`` and a decoded
    row (a fresh one each, so no cached column is shared)."""
    return {
        "list": list(points),
        "trajectory": Trajectory(tid, points),
        "record": _record(tid, points),
    }


def _check(a_points, b_points):
    a_sides, b_sides = _sides("a", a_points), _sides("b", b_points)
    for measure in MEASURES:
        ref_a, ref_b = a_sides["list"], b_sides["list"]
        exact = measure.distance(ref_a, ref_b)
        upper = measure.upper_bound(ref_a, ref_b)
        thresholds = (0.0, exact, exact / 2, 1.0, upper, math.inf)
        expected = [measure.distance_within(ref_a, ref_b, e) for e in thresholds]
        for (na, a), (nb, b) in itertools.product(
            a_sides.items(), b_sides.items()
        ):
            where = (measure.name, na, nb)
            assert measure.distance(a, b) == exact, where
            assert measure.upper_bound(a, b) == upper, where
            got = [measure.distance_within(a, b, e) for e in thresholds]
            assert got == expected, where


@given(points_st, points_st)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_side_kind_gives_the_same_floats(a_points, b_points):
    _check(a_points, b_points)


def test_single_points_and_integer_coordinates():
    _check([(1, 2)], [(4, 6)])
    _check([(1, 2)], [(0, 0), (3, 4), (1, 2)])
    _check([(0, 0), (2, 0), (2, 2)], [(0.5, 0.25)])
    # At or past the vectorised Hausdorff path's 12 points.
    _check([(i, i % 3) for i in range(14)], [(i + 0.5, 1) for i in range(13)])


def test_columns_are_floats():
    trajectory = Trajectory("t", [(1, 2), (3, 4)])
    assert trajectory.columns == ((1.0, 3.0), (2.0, 4.0))
    assert all(type(v) is float for v in trajectory.columns[0])
    assert trajectory.columns is trajectory.columns
    record = _record("t", [(1, 2), (3, 4)])
    assert record.columns == trajectory.columns
    assert record.points == trajectory.points
