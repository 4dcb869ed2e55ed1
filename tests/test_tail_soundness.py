"""Lemmas 13-14 (``LocalFilter.tail``) never reject an answer.

Threshold search counts every refinement answer as passing the local
filter without running ``tail`` on it, so the stage must be a sound
lower bound for each measure: whenever ``distance_within(q, row, eps)``
returns a distance, ``tail`` passes the row.  The cases draw a query and
a stored row (through the row codec, as a scan reads it) from a shared
pool of grid points, so exact duplicates, stationary and collinear runs,
points on another box's edges and single-point trajectories are common;
coordinates are shifted to GPS and to 1e6 magnitudes, where the box
frames round.  Thresholds are 0, the pair's exact distance and its float
neighbours, or a free draw.
"""

import math

from hypothesis import given, settings, strategies as st

from repro import Trajectory
from repro.core.codec import encode_row
from repro.core.local_filter import LocalFilter
from repro.core.storage import TrajectoryRecord
from repro.features.dp_features import extract_dp_features
from repro.measures import get_measure

MEASURES = ["frechet", "dtw", "hausdorff"]
PROPERTY = settings(max_examples=400, deadline=None, derandomize=True)

#: a 2**-16 grid: exact ties are common
grid = st.integers(min_value=0, max_value=2**16).map(lambda i: i / 2**16)


@st.composite
def trajectories(draw, pool, offset):
    """A point list over ``pool``: a free walk, a collinear run along
    one step, or a stationary run."""
    shape = draw(st.sampled_from(("walk", "line", "still")))
    if shape == "walk":
        index = st.integers(0, len(pool) - 1)
        points = [pool[i] for i in draw(st.lists(index, min_size=1, max_size=14))]
    else:
        (x, y), n = pool[draw(st.integers(0, len(pool) - 1))], draw(
            st.integers(1, 12)
        )
        dx, dy = (draw(grid) / 8, draw(grid) / 8) if shape == "line" else (0, 0)
        points = [(x + i * dx, y + i * dy) for i in range(n)]
    return [(offset[0] + x, offset[1] + y) for x, y in points]


@st.composite
def cases(draw):
    offset = draw(st.sampled_from(((0.0, 0.0), (116.0, 39.5), (1.0e6, -3.0e6))))
    pool = draw(st.lists(st.tuples(grid, grid), min_size=1, max_size=8))
    q = draw(trajectories(pool, offset))
    how = draw(st.sampled_from(("drawn", "same", "subset", "reversed")))
    if how == "drawn":
        t = draw(trajectories(pool, offset))
    elif how == "same":
        t = list(q)
    elif how == "subset":
        # Points of q lie in or on the edges of q's boxes.
        keep = draw(st.lists(st.booleans(), min_size=len(q), max_size=len(q)))
        t = [p for p, k in zip(q, keep) if k] or q[:1]
    else:
        t = q[::-1]
    theta = draw(st.sampled_from((0.0, 0.01, 0.05)))
    measure = draw(st.sampled_from(MEASURES))
    exact = get_measure(measure).distance(q, t)
    eps = draw(
        st.one_of(
            st.just(0.0),
            st.just(exact),
            st.just(math.nextafter(exact, math.inf)),
            st.just(exact * (1 + 1e-9)),
            st.floats(min_value=0.0, max_value=1.0),
        )
    )
    return q, t, theta, measure, eps


@given(cases())
@PROPERTY
def test_tail_passes_every_answer(case):
    q, t, theta, measure_name, eps = case
    measure = get_measure(measure_name)
    record = TrajectoryRecord.from_row(
        encode_row("t", t, extract_dp_features(t, theta))
    )
    local = LocalFilter(Trajectory("q", q), measure, eps, theta)
    dist = measure.distance_within(q, record, eps)
    if dist is None:
        return
    assert local.tail(record), (measure_name, eps, dist)
    assert local.stats.passed == 1 and local.stats.rejected == 0


def test_eps_zero_duplicates_pass_for_every_measure():
    """A stored copy of the query at eps 0, at a magnitude where frame
    coordinates round."""
    points = [(1.0e6 + 0.25, -3.0e6), (1.0e6 + 0.5, -3.0e6 + 0.75), (1.0e6, -3.0e6)]
    for name in MEASURES:
        record = TrajectoryRecord.from_row(
            encode_row("t", points, extract_dp_features(points, 0.01))
        )
        local = LocalFilter(Trajectory("q", points), get_measure(name), 0.0, 0.01)
        assert get_measure(name).distance_within(points, record, 0.0) == 0.0
        assert local.tail(record), name


def test_query_features_are_built_on_the_first_tail():
    points = [(0.0, 0.0), (1.0, 0.4), (2.0, 0.0)]
    record = TrajectoryRecord.from_row(
        encode_row("t", points, extract_dp_features(points, 0.01))
    )
    local = LocalFilter(Trajectory("q", points), get_measure("frechet"), 0.1, 0.01)
    assert local.head(record)
    assert "features" not in local.__dict__
    assert local.tail(record)
    features = local.__dict__["features"]
    assert local.tail(record)
    assert local.features is features
