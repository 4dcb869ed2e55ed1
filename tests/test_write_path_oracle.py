"""The column write path against the object oracle, byte for byte.

``TrajectoryStore._prepare`` places, simplifies and boxes a trajectory
on its float columns.  ``tests/write_path_oracle.py`` keeps the object
path it replaced; every row key, row blob and index value must be equal
under both key encodings, and so must the element, the position code,
the representative indexes and the box frames on the way.  The named
edge cases are the ones where a float or a tie decides: points on a
sub-quad's inner line or on the space boundary, degenerate trajectories,
duplicates and collinear points at theta 0, zero-length chords, and
projections that clamp onto a chord's end.
"""

from __future__ import annotations

import hashlib
import os
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import TraSS
from repro.core.config import TraSSConfig
from repro.core.storage import INTEGER_KEYS, STRING_KEYS, TrajectoryStore
from repro.data.generators import lorry_like, tdrive_like
from repro.features.dp_features import extract_dp_features
from repro.geometry.trajectory import Trajectory
from repro.index.bounds import SpaceBounds
from repro.index.xz2 import XZ2Index
from tests import write_path_oracle as oracle

EARTH = SpaceBounds.whole_earth()
UNIT = SpaceBounds(0.0, 0.0, 1.0, 1.0)
THETAS = (0.0, 1e-9, 0.01, 0.3)


def stores(bounds, max_resolution, theta):
    config = TraSSConfig(
        bounds=bounds,
        max_resolution=max_resolution,
        dp_tolerance=theta,
        shards=4,
    )
    return [TrajectoryStore(config, enc) for enc in (INTEGER_KEYS, STRING_KEYS)]


def frame_bytes(frames):
    """Frames as bytes, so ``-0.0`` and ``0.0`` differ."""
    return b"".join(struct.pack(">8d", *frame) for frame in frames)


def outcome(fn, *args):
    """``fn(*args)``, or the type of what it raised (the two paths word
    their ``IndexingError`` differently)."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc)


def assert_matches_oracle(trajectory, bounds, max_resolution, theta):
    for store in stores(bounds, max_resolution, theta):
        assert outcome(store._prepare, trajectory) == outcome(
            oracle.prepare, store, trajectory
        )
    index = store.index
    assert outcome(index.place, trajectory) == outcome(
        oracle.place, index, trajectory
    )
    xz2 = XZ2Index(max_resolution, bounds)
    assert xz2.place(trajectory) == oracle.xz2_place(xz2, trajectory)
    got = extract_dp_features(trajectory, theta)
    want = oracle.extract_dp_features(trajectory.points, theta)
    assert got.rep_indexes == want.rep_indexes
    assert got.rep_points == want.rep_points
    assert frame_bytes(got.frames) == frame_bytes(want.frames)
    # A plain point list takes the same path as the trajectory.
    assert extract_dp_features(list(trajectory.points), theta) == got


# ----------------------------------------------------------------------
# Generated trajectories
# ----------------------------------------------------------------------
def coordinate(lo, extent):
    """A coordinate anywhere in ``[lo, lo + extent]``, on a dyadic grid
    line (an element's or sub-quad's edge), or on the boundary."""
    return st.one_of(
        st.floats(lo, lo + extent, allow_nan=False),
        st.builds(
            lambda level, k: lo + extent * min(k, 1 << level) / (1 << level),
            st.integers(0, 8),
            st.integers(0, 256),
        ),
        st.sampled_from([lo, lo + extent]),
    )


@st.composite
def trajectories(draw, bounds):
    point = st.tuples(
        coordinate(bounds.min_x, bounds.width),
        coordinate(bounds.min_y, bounds.height),
    )
    points = draw(st.lists(point, min_size=1, max_size=24))
    # Repeats: stationary runs, duplicates, returns to an earlier point
    # (zero-length chords).
    for at in draw(st.lists(st.integers(0, 64), max_size=4)):
        points.insert(at % (len(points) + 1), points[at % len(points)])
    return Trajectory("t", points)


@given(
    trajectory=trajectories(EARTH),
    max_resolution=st.sampled_from([1, 3, 8, 16, 28]),
    theta=st.one_of(st.sampled_from(THETAS), st.floats(0.0, 50.0)),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_prepare_matches_oracle_whole_earth(trajectory, max_resolution, theta):
    assert_matches_oracle(trajectory, EARTH, max_resolution, theta)


@given(
    trajectory=trajectories(SpaceBounds(116.0, 39.5, 117.0, 40.5)),
    max_resolution=st.sampled_from([2, 12, 16]),
    theta=st.one_of(st.sampled_from(THETAS), st.floats(0.0, 0.05)),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_prepare_matches_oracle_city_bounds(trajectory, max_resolution, theta):
    bounds = SpaceBounds(116.0, 39.5, 117.0, 40.5)
    assert_matches_oracle(trajectory, bounds, max_resolution, theta)


@given(
    points=st.lists(
        st.tuples(st.floats(-400, 400), st.floats(-200, 200)),
        min_size=1,
        max_size=12,
    ),
    max_resolution=st.sampled_from([4, 16]),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_query_placement_clamps_like_the_oracle(points, max_resolution):
    """Queries may leave the bounds; placement clamps them onto the
    space's edge exactly as the per-point normaliser did."""
    trajectory = Trajectory("q", points)
    index = stores(EARTH, max_resolution, 0.01)[0].index
    assert outcome(index.place, trajectory) == outcome(
        oracle.place, index, trajectory
    )
    xz2 = XZ2Index(max_resolution, EARTH)
    assert xz2.place(trajectory) == oracle.xz2_place(xz2, trajectory)


# ----------------------------------------------------------------------
# The named edge cases
# ----------------------------------------------------------------------
def _on_unit(points):
    return Trajectory("edge", points)


EDGE_CASES = {
    # Level-2 element (0, 0): its inner lines are x = 0.25 and y = 0.25.
    "inner_line": (UNIT, [(0.1, 0.1), (0.25, 0.3), (0.25, 0.25), (0.5, 0.2)]),
    "inner_line_both_axes": (UNIT, [(0.25, 0.25), (0.5, 0.5), (0.1, 0.4)]),
    "space_corners": (
        EARTH,
        [(-180.0, -90.0), (180.0, 90.0), (180.0, -90.0), (-180.0, 90.0)],
    ),
    "top_right_edge": (EARTH, [(179.5, 89.5), (180.0, 90.0), (180.0, 89.0)]),
    "stationary_at_the_pole": (EARTH, [(180.0, 90.0)] * 5),
    "stationary": (UNIT, [(0.3, 0.7)] * 6),
    "single_point": (UNIT, [(0.3, 0.7)]),
    "single_point_on_boundary": (EARTH, [(-180.0, 90.0)]),
    "two_points": (UNIT, [(0.3, 0.7), (0.31, 0.69)]),
    "two_equal_points": (UNIT, [(0.3, 0.7), (0.3, 0.7)]),
    "collinear_with_duplicates": (
        UNIT,
        [(0.1, 0.1), (0.1, 0.1), (0.2, 0.2), (0.3, 0.3), (0.3, 0.3), (0.4, 0.4)],
    ),
    "collinear_backtrack": (UNIT, [(0.1, 0.1), (0.4, 0.4), (0.2, 0.2), (0.5, 0.5)]),
    "zero_length_chord": (UNIT, [(0.2, 0.2), (0.4, 0.3), (0.3, 0.5), (0.2, 0.2)]),
    "zero_length_chord_stationary_inside": (
        UNIT,
        [(0.2, 0.2), (0.2, 0.2), (0.25, 0.2), (0.2, 0.2)],
    ),
    # Chord (0.25, 0.25) -> (0.5, 0.25): the middle points project
    # before its start (t < 0), past its end (t > 1) and exactly onto
    # its end (t == 1); dyadic coordinates keep the projections exact.
    "projection_clamps": (
        UNIT,
        [(0.25, 0.25), (0.125, 0.375), (0.625, 0.28125), (0.5, 0.375),
         (0.5, 0.25)],
    ),
}


@pytest.mark.parametrize("theta", [0.0, 0.01])
@pytest.mark.parametrize("max_resolution", [2, 16])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_matches_oracle(case, max_resolution, theta):
    bounds, points = EDGE_CASES[case]
    assert_matches_oracle(_on_unit(points), bounds, max_resolution, theta)


def test_inner_line_case_is_on_the_inner_line():
    """The inner-line case really puts points on both inner lines, and
    the convention sends them to the lower/left quad: ``{a, b, c}``."""
    bounds, points = EDGE_CASES["inner_line"]
    index = stores(bounds, 16, 0.0)[0].index
    element, code = index.place(_on_unit(points))
    assert (element.level, element.ix, element.iy) == (2, 0, 0)
    assert code == 5  # {a, b, c}: (0.25, 0.3) is b, (0.25, 0.25) is a


def test_projection_case_clamps_both_ways():
    """The clamp case's interior points project to t < 0, t > 1 and
    t == 1 on the chord Douglas-Peucker tests them against first."""
    _, points = EDGE_CASES["projection_clamps"]
    (ax, ay), *inner, (bx, by) = points
    dx, dy = bx - ax, by - ay
    ts = [((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
          for px, py in inner]
    assert min(ts) < 0.0 and max(ts) > 1.0 and 1.0 in ts


# ----------------------------------------------------------------------
# The benchmark's configuration and data
# ----------------------------------------------------------------------
#: ``benchmarks/e2e``'s engine set-up: whole earth, r = 16, theta 0.01
BENCH_CONFIG = TraSSConfig(
    bounds=EARTH, max_resolution=16, dp_tolerance=0.01, shards=8
)
FLEETS = {
    "tdrive_like": tdrive_like(200, seed=101),
    "lorry_like": lorry_like(80, seed=101),
}


@pytest.mark.parametrize("fleet", sorted(FLEETS))
@pytest.mark.parametrize("key_encoding", [INTEGER_KEYS, STRING_KEYS])
def test_fleet_rows_match_oracle(fleet, key_encoding):
    store = TrajectoryStore(BENCH_CONFIG, key_encoding)
    for trajectory in FLEETS[fleet]:
        assert store._prepare(trajectory) == oracle.prepare(
            store, trajectory
        ), trajectory.tid


def segment_digests(directory):
    return {
        name: hashlib.sha256(
            open(os.path.join(directory, name), "rb").read()
        ).hexdigest()
        for name in sorted(os.listdir(directory))
        if name.endswith(".seg")
    }


@pytest.mark.parametrize("fleet", sorted(FLEETS))
def test_fleet_segment_files_match_oracle_build(fleet, tmp_path, monkeypatch):
    """``save(compact=True)`` of a store built on the column path writes
    the same ``.seg`` files as one built on the oracle's rows."""
    built = {}
    for name in ("columns", "oracle"):
        if name == "oracle":
            monkeypatch.setattr(TrajectoryStore, "_prepare", oracle.prepare)
        engine = TraSS(BENCH_CONFIG)
        engine.add_all(FLEETS[fleet])
        engine.save(str(tmp_path / name), compact=True)
        built[name] = segment_digests(str(tmp_path / name))
    assert built["columns"], "no segment file written"
    assert built["columns"] == built["oracle"]


@pytest.mark.parametrize("key_encoding", [INTEGER_KEYS, STRING_KEYS])
def test_ingest_leaves_the_callers_trajectories_uncached(key_encoding):
    """Ingest reads a trajectory's columns once, into a view: the
    caller's objects keep no second copy of their coordinates."""
    fleet = tdrive_like(30, seed=7)
    engine = TraSS(BENCH_CONFIG, key_encoding)
    engine.add(fleet[0])
    engine.add_all(fleet[1:20])
    engine.add_all(fleet[20:], sorted_ingest=True)
    assert len(engine) == len(fleet)
    for trajectory in fleet:
        assert trajectory._columns is None, trajectory.tid
        assert trajectory._mbr is None, trajectory.tid


def test_string_key_put_never_decodes(monkeypatch):
    """A TraSS-S row key is built from the element and position code
    the placement returned, not by inverting the index value."""
    store = TrajectoryStore(BENCH_CONFIG, STRING_KEYS)

    def no_decode(value):
        raise AssertionError(f"index.decode({value}) on the put path")

    monkeypatch.setattr(store.index, "decode", no_decode)
    fleet = FLEETS["lorry_like"]
    store.put(fleet[0])
    store.put_all(fleet[1:40])
    store.put_all(fleet[40:], sorted_ingest=True)
    assert store.trajectory_count == len(fleet)
