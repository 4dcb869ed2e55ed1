"""Discrete Fréchet's lower bound against its DP and its upper bound.

``DiscreteFrechet.lower_bound`` is the largest of the two corner cells
and every row's and every column's smallest cell; ``upper_bound`` is
the greedy coupling's cost; the DP value lies between them.  All three
are ``min`` / ``max`` selections of the same cell floats, so the
sandwich must hold exactly in the floats, and top-k decides a pop from
it without the DP: out when ``lower > t``, the distance when ``lower ==
upper``.  Those decisions must be the ones ``distance_within`` makes at
every threshold, the value itself and its neighbouring floats included.
Long pairs are bounded in blocks of ``_GROUP_CELLS`` cells; the blocks
must give the unblocked value and keep the memory to a few MB.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry.trajectory import Trajectory
from repro.measures import frechet
from repro.measures.frechet import DiscreteFrechet

FRECHET = DiscreteFrechet()


def _walk(rng: random.Random, length: int, step: float, origin=(0.0, 0.0)):
    """A random walk from near ``origin``; ``step`` 0 repeats a point."""
    x = origin[0] + rng.uniform(-1.0, 1.0)
    y = origin[1] + rng.uniform(-1.0, 1.0)
    points = []
    for _ in range(length):
        points.append((x, y))
        x += rng.uniform(-step, step)
        y += rng.uniform(-step, step)
    return points


@st.composite
def pairs(draw):
    """Two point lists: random walks of 1, 2 or up to 40 points, with
    repeated points, exact duplicates, a shared prefix or a far-apart
    second side."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lengths = st.sampled_from([1, 2, 3, 7, 25, 40])
    step = draw(st.sampled_from([0.0, 0.001, 0.05, 0.5]))
    a = _walk(rng, draw(lengths), step)
    case = draw(
        st.sampled_from(["walk", "duplicate", "repeats", "prefix", "far"])
    )
    if case == "duplicate":
        b = list(a)
    elif case == "repeats":
        b = [p for p in a for _ in range(rng.randint(1, 3))]
    elif case == "prefix":
        b = a[: rng.randint(1, len(a))] + _walk(rng, draw(lengths), step)
    elif case == "far":
        b = _walk(rng, draw(lengths), step, origin=(1e3, -1e3))
    else:
        b = _walk(rng, draw(lengths), step)
    return a, b


def _certified(lower: float, upper: float, t: float):
    """Top-k's decision at threshold ``t``: ``None`` (out), the distance,
    or ``...`` when the bounds leave it to the DP."""
    if lower > t:
        return None
    if lower == upper:
        return upper if upper <= t else None
    return ...


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs(), st.booleans())
def test_lower_distance_upper_sandwich(pair, swap):
    a, b = pair[::-1] if swap else pair
    lower = FRECHET.lower_bound(a, b)
    value = FRECHET.distance(a, b)
    upper = FRECHET.upper_bound(a, b)
    assert lower <= value <= upper
    thresholds = {
        0.0,
        value,
        math.nextafter(value, math.inf),
        max(0.0, math.nextafter(value, -math.inf)),
        lower,
        max(0.0, math.nextafter(lower, -math.inf)),
        upper,
        math.inf,
    }
    for t in thresholds:
        decided = _certified(lower, upper, t)
        if decided is not ...:
            assert FRECHET.distance_within(a, b, t) == decided, t


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pairs())
def test_equal_bounds_certify_the_distance(pair):
    """Duplicates, single points and far-apart sides meet the bounds;
    then ``distance_within`` returns the bound at and above it and
    ``None`` below it."""
    a, b = pair
    lower, upper = FRECHET.lower_bound(a, b), FRECHET.upper_bound(a, b)
    if lower != upper:
        return
    assert FRECHET.distance(a, b) == upper
    for t in (upper, math.nextafter(upper, math.inf)):
        assert FRECHET.distance_within(a, b, t) == upper
    if upper > 0:
        assert FRECHET.distance_within(a, b, 0.0) is None
        below = math.nextafter(upper, -math.inf)
        assert FRECHET.distance_within(a, b, below) is None


def test_corner_cases_meet_exactly():
    rng = random.Random(3)
    walk = _walk(rng, 30, 0.05)
    # eps = 0: an exact duplicate is at distance 0 and certified there.
    assert FRECHET.lower_bound(walk, list(walk)) == 0.0
    assert FRECHET.upper_bound(walk, list(walk)) == 0.0
    assert FRECHET.distance_within(walk, list(walk), 0.0) == 0.0
    # A single point on one side: every coupling is the whole other side.
    point = [walk[7]]
    assert FRECHET.lower_bound(point, walk) == FRECHET.distance(point, walk)
    assert FRECHET.lower_bound(point, walk) == FRECHET.upper_bound(point, walk)
    # Far-apart sides: the bound rejects below the distance.
    far = _walk(rng, 12, 0.05, origin=(50.0, 50.0))
    lower = FRECHET.lower_bound(walk, far)
    assert lower > 40.0
    assert FRECHET.distance_within(walk, far, 40.0) is None


def _rows_then_columns(a, b) -> float:
    """The bound's definition, one NumPy lattice row at a time."""
    bx = np.array([p[0] for p in b])
    by = np.array([p[1] for p in b])
    rows = []
    columns = np.full(len(b), math.inf)
    for x, y in a:
        dx = x - bx
        dy = y - by
        d = dx * dx + dy * dy
        rows.append(float(d.min()))
        columns = np.minimum(columns, d)
    corners = [
        (a[i][0] - b[i][0]) * (a[i][0] - b[i][0])
        + (a[i][1] - b[i][1]) * (a[i][1] - b[i][1])
        for i in (0, -1)
    ]
    return max(max(rows), float(columns.max()), *corners)


def test_long_pair_is_blocked_and_equal(monkeypatch):
    """A 3 000-point pair runs in blocks of ``_GROUP_CELLS`` cells: the
    bound equals the row-by-row one, and a smaller pair's equals its
    single-block one, while the blocked peak stays at a few MB (the
    whole matrix would need 144 MB)."""
    rng = random.Random(11)
    a = Trajectory("a", _walk(rng, 3000, 0.01))
    b = Trajectory("b", _walk(rng, 3000, 0.01))
    a.columns, b.columns  # cached before measuring
    tracemalloc.start()
    try:
        blocked = frechet._nearest_sq(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert blocked == _rows_then_columns(a.points, b.points)

    short = Trajectory("s", b.points[:300])
    blocked = frechet._nearest_sq(a, short)
    monkeypatch.setattr(frechet, "_GROUP_CELLS", 3000 * 300)
    assert frechet._nearest_sq(a, short) == blocked
