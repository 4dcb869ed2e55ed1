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
from repro.features.dp_features import (
    MIN_AREA_BOXES,
    DPFeatures,
    extract_dp_features,
)
from repro.geometry.distance import segment_distance
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.geometry.segment import (
    OrientedBox,
    admit_reach,
    segment_box_sq_distance,
)
from repro.measures import get_measure

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


@given(st.lists(point, min_size=1, max_size=8), point, point, thresholds)
@settings(max_examples=200, deadline=None)
def test_kernel_matches_reference_on_min_area_boxes(pts, a, b, eps):
    from repro.geometry.hull import min_area_oriented_box

    check_against_reference(min_area_oriented_box(pts), a, b, eps)


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
            for mode in ("chord", MIN_AREA_BOXES):
                fa = extract_dp_features(pts, 0.05, box_mode=mode)
                fb = extract_dp_features(list(pts), 0.05, box_mode=mode)
                assert fa.exceeds_box_bound(fb, 0.0) is False


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
    features = DPFeatures(rep_indexes=(), rep_points=(), boxes=tuple(boxes))
    want = [MBR.of_points(reference_corners(box)) for box in boxes]
    assert list(features.envelopes) == want
    assert [box.mbr() for box in boxes] == want


def test_box_geometry_is_lazy_and_kept():
    features = extract_dp_features([(0, 0), (1, 0.4), (2, 0), (3, 0.5)], 0.01)
    assert "_box_geometry" not in features.__dict__
    assert "envelopes" not in features.__dict__
    features.exceeds_box_bound(features, 0.1)
    assert features._box_geometry is features._box_geometry
    assert len(features.envelopes) == features.num_boxes


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
    st.sampled_from(["chord", MIN_AREA_BOXES]),
)
@settings(max_examples=300, deadline=None)
def test_lemma14_sound_for_every_measure(q, t, measure, theta, box_mode):
    fq = extract_dp_features(q, theta, box_mode=box_mode)
    ft = extract_dp_features(t, theta, box_mode=box_mode)
    exact = get_measure(measure).distance(q, t)
    # At, just above and well above the exact distance the pair is an
    # answer, so neither direction may prove it exceeds.
    for eps in (exact, exact * (1 + 1e-9) + 1e-12, exact * 2 + 0.1):
        assert not fq.exceeds_box_bound(ft, eps)
        assert not ft.exceeds_box_bound(fq, eps)
    assert fq.box_lower_bound_against(ft) <= exact + 1e-9
    assert ft.box_lower_bound_against(fq) <= exact + 1e-9


@given(unit_points, unit_points, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_decision_agrees_with_bound_value(q, t, eps):
    fq = extract_dp_features(q, 0.01)
    ft = extract_dp_features(t, 0.01)
    bound = fq.box_lower_bound_against(ft)
    if abs(bound - eps) > 1e-9:
        assert fq.exceeds_box_bound(ft, eps) == (bound > eps)


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
