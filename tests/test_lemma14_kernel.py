"""Lemma 14's closed-form kernel against the composed reference.

The local filter's box stage runs on one O(1) kernel,
``segment_box_sq_distance``.  The implementation it replaced — the
exact segment-segment distance over the box's four edges, plus
containment — lives on here as the oracle: distances must agree, and
decisions may differ only within rounding of the threshold, where the
kernel is relaxed towards admitting.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import SpaceBounds, TraSS, TraSSConfig, Trajectory
from repro.core.codec import encode_row
from repro.core.local_filter import (
    LocalFilter,
    edges_exceed_boxes,
    points_exceed_boxes,
)
from repro.core.storage import TrajectoryRecord
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like
from repro.data.noise import jitter
from repro.features.dp_features import DPFeatures, extract_dp_features
from repro.geometry.distance import segment_distance
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.geometry.segment import admit_reach, segment_box_sq_distance
from repro.measures import get_measure
from tests import box_oracle
from tests.write_path_oracle import OrientedBox

MEASURES = ["frechet", "hausdorff", "dtw"]


# ----------------------------------------------------------------------
# The reference: what ``OrientedBox.distance_to_segment`` used to be.
# ----------------------------------------------------------------------
def reference_corners(box):
    ux, uy = box.axis
    return [
        Point(
            box.anchor.x + along * ux - perp * uy,
            box.anchor.y + along * uy + perp * ux,
        )
        for along, perp in (
            (box.lo_along, box.lo_perp),
            (box.length, box.lo_perp),
            (box.length, box.hi_perp),
            (box.lo_along, box.hi_perp),
        )
    ]


def reference_distance(box, a, b):
    """Zero on containment, else the minimum over the four box edges of
    the exact segment-segment distance."""
    if box.contains_point(a[0], a[1]) or box.contains_point(b[0], b[1]):
        return 0.0
    cs = reference_corners(box)
    return min(segment_distance(a, b, cs[i], cs[(i + 1) % 4]) for i in range(4))


def kernel_distance(box, a, b, limit=None):
    return segment_box_sq_distance(a[0], a[1], b[0], b[1], *box.frame(), limit)


def check_against_reference(box, a, b, eps):
    want = reference_distance(box, a, b)
    got = math.sqrt(kernel_distance(box, a, b))
    assert got == pytest.approx(want, abs=1e-9)
    # The bounded form must compare with the limit the way the exact
    # squared distance does, whichever early exit it takes.
    reach = admit_reach(eps, 10.0)
    limit = reach * reach
    if abs(want - eps) > 1e-9 * max(1.0, eps):
        assert (kernel_distance(box, a, b, limit) <= limit) == (want <= eps)


coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64)
point = st.tuples(coord, coord)
#: mostly values near the geometry's own scale, plus exact zero
thresholds = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
)


@given(st.lists(point, min_size=1, max_size=6), point, point, thresholds)
@settings(max_examples=400, deadline=None)
def test_kernel_matches_reference_on_chord_boxes(pts, a, b, eps):
    check_against_reference(OrientedBox.cover(pts), a, b, eps)


class TestKernelCases:
    BOX = OrientedBox.cover([(0, 0), (2, 0), (2, 1), (0, 1)])
    DIAGONAL = OrientedBox.cover([(0, 0), (1, 1.2), (2, 1.8), (3, 3)])

    @pytest.mark.parametrize(
        "a, b",
        [
            ((1, -1), (1, 2)),  # crosses, both endpoints outside
            ((-1, -1), (3, 2)),  # crosses corner to corner
            ((1.5, 0.2), (9, 9)),  # one endpoint inside
            ((0.5, 0.5), (1.5, 0.5)),  # wholly inside
            ((-1, 1), (3, 1)),  # collinear with the top edge, overlapping
            ((2, 1), (3, 2)),  # touches exactly one corner
            ((2.5, 0.5), (2.5, 0.5)),  # zero-length edge outside
            ((1, 0.5), (1, 0.5)),  # zero-length edge inside
            ((0, 2), (2, 2)),  # parallel, disjoint
            ((3, 2), (4, 5)),  # nearest feature is a corner
            ((-1, 3), (3, -0.5 - 1e-9)),  # passes a corner, just outside
        ],
    )
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 2.0])
    def test_axis_aligned(self, a, b, eps):
        check_against_reference(self.BOX, a, b, eps)

    @pytest.mark.parametrize(
        "a, b",
        [
            ((0, 3), (3, 0)),  # crosses the rotated box
            ((0, 1), (0, 3)),  # beside it
            ((4, 4), (5, 5)),  # beyond its far end, collinear with the chord
            ((1.5, 1.5), (1.5, 1.5)),
        ],
    )
    def test_rotated(self, a, b):
        check_against_reference(self.DIAGONAL, a, b, 0.3)

    def test_degenerate_point_box(self):
        box = OrientedBox.cover([(1.0, 2.0)])
        assert math.sqrt(kernel_distance(box, (1, 3), (4, 3))) == pytest.approx(1.0)
        assert kernel_distance(box, (0, 2), (3, 2)) == pytest.approx(0.0, abs=1e-24)
        assert kernel_distance(box, (1, 2), (1, 2)) == 0.0
        check_against_reference(box, (0, 0), (3, 1), 0.5)

    def test_zero_length_chord_box(self):
        # First and last point coincide: an axis-aligned frame.
        box = OrientedBox.cover([(1, 1), (2, 3), (0, 2), (1, 1)])
        check_against_reference(box, (3, 0), (3, 4), 0.5)
        check_against_reference(box, (-1, 0), (4, 4), 0.0)

    def test_bounded_form_sides_with_the_limit(self):
        """Whatever early exit fires, the value lands on the same side
        of ``limit`` as the exact squared distance."""
        rng = random.Random(7)
        for _ in range(500):
            pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
            box = OrientedBox.cover(pts)
            a = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            b = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            exact = kernel_distance(box, a, b)
            for limit in (0.0, 0.25, 1.0, 4.0):
                if abs(exact - limit) > 1e-12:
                    bounded = kernel_distance(box, a, b, limit)
                    assert (bounded <= limit) == (exact <= limit)

    def test_identical_features_never_exceed_at_zero(self):
        """eps = 0 on a duplicate: every edge lies on its own box, up to
        the rounding of the corner round-trip — which the admit-side
        slack must absorb, at small and at large coordinates."""
        rng = random.Random(3)
        for offset in (0.0, 116.0, 4.0e6):
            pts = [
                (offset + rng.uniform(0, 1), offset + rng.uniform(0, 1))
                for _ in range(40)
            ]
            fa = extract_dp_features(pts, 0.05)
            fb = extract_dp_features(list(pts), 0.05)
            assert box_oracle.exceeds_box_bound(fa, fb, 0.0) is False


# ----------------------------------------------------------------------
# Envelopes: closed form, bit-identical to the corner construction.
# ----------------------------------------------------------------------
def random_boxes(rng, n):
    boxes = []
    for i in range(n):
        k = rng.randint(1, 7)
        pts = [(rng.uniform(-180, 180), rng.uniform(-90, 90)) for _ in range(k)]
        if i % 5 == 0:
            pts.append(pts[0])  # zero-length chord
        boxes.append(OrientedBox.cover(pts))
    return boxes


def test_envelopes_bit_identical_to_corner_mbr():
    rng = random.Random(19)
    boxes = random_boxes(rng, 200)
    features = DPFeatures(
        rep_indexes=(), rep_points=(), frames=tuple(b.frame() for b in boxes)
    )
    want = [MBR.of_points(reference_corners(box)) for box in boxes]
    assert [MBR(*env) for env, _, _ in features.geometry.boxes] == want
    assert list(box_oracle.envelopes(features)) == want
    assert [box.mbr() for box in boxes] == want
    # The flat corners are ``corner_coords``'s, bit for bit.
    assert [c for _, _, c in features.geometry.boxes] == [
        box.corner_coords() for box in boxes
    ]


def test_box_geometry_is_lazy_and_kept():
    points = [(0, 0), (1, 0.4), (2, 0), (3, 0.5)]
    features = extract_dp_features(points, 0.01)
    assert "geometry" not in features.__dict__
    box_oracle.exceeds_box_bound(features, features, 0.1)
    assert "geometry" not in features.__dict__
    local = LocalFilter(
        Trajectory("q", points), get_measure("frechet"), 0.1, 0.01
    )
    record = TrajectoryRecord.from_row(encode_row("t", points, features))
    assert local.passes(record)
    geometry = record.features.geometry
    assert local.passes(record)
    assert record.features.geometry is geometry
    assert local.features.geometry is local.features.geometry
    assert len(geometry.boxes) == features.num_boxes


# ----------------------------------------------------------------------
# Soundness (ROADMAP 4b): Lemma 14 never rejects a pair the exact
# measure accepts.
# ----------------------------------------------------------------------
#: a 2**-20 grid in the unit square: exact ties are common, and no
#: coordinate is so small that the *measure's* squared domain underflows
unit = st.integers(min_value=0, max_value=2**20).map(lambda i: i / 2**20)
unit_points = st.lists(st.tuples(unit, unit), min_size=1, max_size=20)


@given(
    unit_points,
    unit_points,
    st.sampled_from(MEASURES),
    st.sampled_from([0.0, 0.01, 0.05]),
)
@settings(max_examples=300, deadline=None)
def test_lemma14_sound_for_every_measure(q, t, measure, theta):
    fq = extract_dp_features(q, theta)
    ft = extract_dp_features(t, theta)
    exact = get_measure(measure).distance(q, t)
    # At, just above and well above the exact distance the pair is an
    # answer, so neither direction may prove it exceeds.
    for eps in (exact, exact * (1 + 1e-9) + 1e-12, exact * 2 + 0.1):
        assert not box_oracle.exceeds_box_bound(fq, ft, eps)
        assert not box_oracle.exceeds_box_bound(ft, fq, eps)
    assert box_oracle.box_lower_bound_against(fq, ft) <= exact + 1e-9
    assert box_oracle.box_lower_bound_against(ft, fq) <= exact + 1e-9


@given(unit_points, unit_points, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_decision_agrees_with_bound_value(q, t, eps):
    fq = extract_dp_features(q, 0.01)
    ft = extract_dp_features(t, 0.01)
    bound = box_oracle.box_lower_bound_against(fq, ft)
    if abs(bound - eps) > 1e-9:
        assert box_oracle.exceeds_box_bound(fq, ft, eps) == (bound > eps)


# ----------------------------------------------------------------------
# Boundary exactness end to end: eps equal to an exact distance keeps
# that trajectory, through every filter stage.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def boundary_data():
    rng = random.Random(77)
    data = []
    for i in range(80):
        x, y = 0.4 + rng.uniform(-0.05, 0.05), 0.4 + rng.uniform(-0.05, 0.05)
        pts = [(x, y)]
        for _ in range(rng.randint(0, 25)):
            x += rng.uniform(-0.01, 0.01)
            y += rng.uniform(-0.01, 0.01)
            pts.append((x, y))
        data.append(Trajectory(f"t{i}", pts))
    return data


@pytest.mark.parametrize("measure", MEASURES)
def test_threshold_at_exact_distance_keeps_the_trajectory(
    boundary_data, measure
):
    cfg = TraSSConfig(
        bounds=SpaceBounds(0, 0, 1, 1),
        max_resolution=8,
        dp_tolerance=0.004,
        shards=2,
    )
    engine = TraSS.build(boundary_data, cfg)
    m = get_measure(measure)
    rng = random.Random(5)
    for _ in range(12):
        q = boundary_data[rng.randrange(len(boundary_data))]
        t = boundary_data[rng.randrange(len(boundary_data))]
        eps = m.distance(q.points, t.points)
        result = engine.threshold_search(q, eps, measure=measure)
        assert t.tid in result.answers, (measure, q.tid, t.tid, eps)
        want = {
            s.tid for s in boundary_data if m.distance(q.points, s.points) <= eps
        }
        assert set(result.answers) == want


# ----------------------------------------------------------------------
# The flat kernel against the object oracle: every Lemma 13 and Lemma 14
# decision, in both directions, is the object path's, bit for bit.
# ----------------------------------------------------------------------
ORACLE_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def lemma_cases(draw):
    """A query and a stored row drawn from one pool of grid points (so
    duplicates, stationary runs and near misses are common), shifted to
    magnitude 1e6 or not; single-point trajectories included.  The
    threshold is 0, a free draw, or an exact Lemma 13 / Lemma 14 value
    of the pair and its float neighbours, so ties are exercised."""
    offset = draw(st.sampled_from((0.0, 1.0e6, -3.0e6)))
    pool = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=10))
    index = st.integers(0, len(pool) - 1)
    q, t = (
        [
            (offset + pool[i][0], offset + pool[i][1])
            for i in draw(st.lists(index, min_size=1, max_size=16))
        ]
        for _ in range(2)
    )
    theta = draw(st.sampled_from((0.0, 0.01, 0.1)))
    fq = extract_dp_features(q, theta)
    # The stored side goes through the row codec, as a scanned row does.
    ft = TrajectoryRecord.from_row(
        encode_row("t", t, extract_dp_features(t, theta))
    ).features
    anchors = [
        box_oracle.point_to_boxes_distance(fq, *ft.rep_points[0]),
        box_oracle.point_to_boxes_distance(ft, *fq.rep_points[-1]),
        box_oracle.box_lower_bound_against(fq, ft),
        box_oracle.box_lower_bound_against(ft, fq),
    ]
    anchor = draw(st.sampled_from(anchors))
    eps = draw(
        st.one_of(
            st.just(0.0),
            st.just(anchor),
            st.just(math.nextafter(anchor, math.inf)),
            st.just(max(0.0, math.nextafter(anchor, -math.inf))),
            st.floats(0.0, 0.5),
        )
    )
    return q, t, fq, ft, eps


def pair_reach(fa, fb, eps):
    """The threshold both lemmas compare with: ``admit_reach`` at the
    pair's coordinate scale."""
    return admit_reach(eps, max(fa.geometry.scale, fb.geometry.scale))


@ORACLE_PROPERTY
@given(case=lemma_cases())
def test_flat_lemmas_decide_as_the_object_oracle(case):
    q, t, fq, ft, eps = case
    reach = pair_reach(fq, ft, eps)
    assert reach == admit_reach(
        eps, max(box_oracle.box_scale(fq), box_oracle.box_scale(ft))
    )
    for mine, points, theirs in ((fq, q, ft), (ft, t, fq)):
        boxes = theirs.geometry.boxes
        # Lemma 13, per point: representative points and every raw one,
        # at the pair's reach and at eps itself.
        for x, y in mine.rep_points + tuple(points):
            for threshold in (reach, eps):
                assert points_exceed_boxes(
                    ((x, y),), boxes, threshold
                ) == box_oracle.point_exceeds_boxes(theirs, x, y, threshold)
        assert points_exceed_boxes(mine.rep_points, boxes, reach) == any(
            box_oracle.point_exceeds_boxes(theirs, x, y, reach)
            for x, y in mine.rep_points
        )
        # Lemma 14, this side's edges against the other side's boxes.
        assert edges_exceed_boxes(
            mine.geometry.boxes, boxes, reach, reach * reach
        ) == box_oracle.exceeds_box_bound(mine, theirs, eps)


@ORACLE_PROPERTY
@given(case=lemma_cases(), probe=st.tuples(unit, unit))
def test_flat_lemma13_rejects_only_points_beyond_eps(case, probe):
    """Soundness: a point the flat loop rejects is farther than eps from
    every raw point of the side whose boxes rejected it."""
    q, t, fq, ft, eps = case
    reach = pair_reach(fq, ft, eps)
    offset = q[0][0] - (q[0][0] % 1.0)
    for points, features in ((q, fq), (t, ft)):
        for x, y in fq.rep_points + ft.rep_points + (
            (offset + probe[0], offset + probe[1]),
        ):
            if points_exceed_boxes(((x, y),), features.geometry.boxes, reach):
                assert all(math.hypot(x - px, y - py) > eps for px, py in points)


@pytest.mark.parametrize("box_mode", ["chord"])
@pytest.mark.parametrize("measure", MEASURES)
def test_duplicate_at_eps_zero_is_an_answer(box_mode, measure):
    """A corner of a box envelope rounds past the raw point it came
    from; Lemma 13 compared with eps itself then rejected a stored
    trajectory queried with itself at eps = 0."""
    t = Trajectory("t", [(9.5367431640625e-07, 0.0016946792602539062), (0.0, 0.0)])
    cfg = TraSSConfig(
        bounds=SpaceBounds(0, 0, 1, 1),
        max_resolution=8,
        shards=1,
    )
    result = TraSS.build([t], cfg).threshold_search(t, 0.0, measure=measure)
    assert result.answers == {"t": 0.0}
    assert result.filter_stats.rejected_rep_points == 0


# ----------------------------------------------------------------------
# The read path builds no box object, and a whole query on the flat
# kernel tallies and answers exactly as on the object oracle.
# ----------------------------------------------------------------------
def fleet():
    """Jittered copies of a few routes beside background trips, so many
    rows survive Lemmas 5 and 12 and meet Lemmas 13-14."""
    routes = tdrive_like(8, seed=23)
    data = list(tdrive_like(40, seed=29))
    for r, route in enumerate(routes):
        for c in range(5):
            data.append(jitter(route, 0.002, seed=100 * r + c, tid=f"r{r}c{c}"))
    return routes, data


@pytest.fixture(scope="module")
def fleet_stores(tmp_path_factory):
    routes, data = fleet()
    cfg = TraSSConfig(
        bounds=TDRIVE_BOUNDS, max_resolution=12, shards=2, cache_mb=0
    )
    memtable = TraSS.build(data, cfg)
    flushed = TraSS.build(data, cfg)
    flushed.store.table.flush_all()
    directory = str(tmp_path_factory.mktemp("fleet_seg"))
    TraSS.build(data, cfg).save(directory)
    segment = TraSS.load(directory)
    queries = [jitter(r, 0.0005, seed=7 + i, tid=f"q{i}") for i, r in enumerate(routes)]
    return {"memtable": memtable, "flushed": flushed, "segment": segment}, queries


def run_queries(engine, queries):
    """Per query and setting: (answers, filter stats) of threshold and
    top-k queries over every measure."""
    out = []
    for measure in MEASURES:
        for q in queries:
            for eps in (0.0, 0.003, 0.01, 0.05):
                r = engine.threshold_search(q, eps, measure=measure)
                out.append((r.answers, r.filter_stats.as_dict()))
            r = engine.topk_search(q, 5, measure=measure)
            out.append((r.answers, r.filter_stats.as_dict()))
    return out


@pytest.mark.parametrize("store", ["memtable", "flushed", "segment"])
def test_read_path_builds_no_box_objects(fleet_stores, store, monkeypatch):
    engines, queries = fleet_stores
    engine = engines[store]
    armed = []

    def forbid(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            if armed:
                raise AssertionError(f"{cls.__name__} built inside the scan")
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    forbid(OrientedBox)
    forbid(MBR)

    def guard(production):
        def guarded(self, record):
            # Lemma 5's one MBR per row (query and record) is not a box.
            self.query.mbr
            record.mbr
            armed.append(True)
            try:
                return production(self, record)
            finally:
                armed.pop()

        return guarded

    # Top-k calls ``passes``; threshold search calls ``head`` in the
    # scan and ``tail`` on the rows refinement rejects.
    for stage in ("passes", "head", "tail"):
        monkeypatch.setattr(LocalFilter, stage, guard(getattr(LocalFilter, stage)))
    flat = run_queries(engine, queries)
    # The guard is live: a box built while armed raises.
    armed.append(True)
    with pytest.raises(AssertionError, match="built inside the scan"):
        OrientedBox.cover([(0.0, 0.0), (1.0, 1.0)])
    armed.pop()

    monkeypatch.undo()
    monkeypatch.setattr(LocalFilter, "passes", box_oracle.oracle_passes)
    monkeypatch.setattr(LocalFilter, "tail", box_oracle.oracle_tail)
    oracle = run_queries(engine, queries)
    assert len(flat) == len(oracle)
    for (f_answers, f_stats), (o_answers, o_stats) in zip(flat, oracle):
        assert f_answers == o_answers
        for name, value in f_stats.items():
            assert value == o_stats[name], name
    # The data reaches Lemmas 13-14 and they reject.
    assert sum(s["passed"] for _, s in flat) > 0
    assert sum(s["rejected_rep_points"] + s["rejected_boxes"] for _, s in flat) > 0
