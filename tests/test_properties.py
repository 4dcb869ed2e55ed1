"""Property-based tests (hypothesis) on the core invariants.

Targets the properties the paper's correctness rests on: the encoding
bijection and its order preservation, SEE coverage, DP-feature
soundness, measure lower bounds, and the KV substrate's dict semantics.
"""

import math

from hypothesis import assume, given, settings, strategies as st

from repro.features.dp_features import extract_dp_features
from repro.geometry.mbr import MBR
from repro.geometry.trajectory import Trajectory, columns_of
from repro.index.bounds import SpaceBounds
from repro.index.position_code import position_code_of
from repro.index.quadrant import Element, smallest_enlarged_element
from repro.index.ranges import IndexRange, merge_ranges, merge_values_to_ranges
from repro.index.xz2 import XZ2Index
from repro.index.xzstar import XZStarIndex
from repro.kvstore.lsm import LSMStore
from repro.kvstore.rowkey import decode_rowkey, encode_rowkey
from repro.measures import discrete_frechet, dtw, hausdorff
from tests import box_oracle

UNIT = SpaceBounds(0, 0, 1, 1)

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)
unit_points = st.tuples(coords, coords)
point_lists = st.lists(unit_points, min_size=1, max_size=25)
multi_point_lists = st.lists(unit_points, min_size=2, max_size=25)


# ----------------------------------------------------------------------
# XZ* encoding
# ----------------------------------------------------------------------
@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=150, deadline=None)
def test_xzstar_value_decode_roundtrip(max_res, data):
    index = XZStarIndex(max_res, UNIT)
    value = data.draw(st.integers(min_value=0, max_value=index.total_index_spaces - 1))
    element, code = index.decode(value)
    assert index.value(element, code) == value


@given(st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=100, deadline=None)
def test_xzstar_values_distinct(max_res, data):
    index = XZStarIndex(max_res, UNIT)
    v1 = data.draw(st.integers(min_value=0, max_value=index.root_block_start - 1))
    v2 = data.draw(st.integers(min_value=0, max_value=index.root_block_start - 1))
    assume(v1 != v2)
    assert index.decode(v1) != index.decode(v2)


@given(point_lists)
@settings(max_examples=200, deadline=None)
def test_trajectory_placement_total(points):
    """Every in-bounds trajectory gets a legal (element, code, value)."""
    index = XZStarIndex(8, UNIT)
    t = Trajectory("h", points)
    placed = index.index(t)
    assert 0 <= placed.value < index.total_index_spaces
    element, code = index.decode(placed.value)
    assert element == placed.element
    assert code == placed.position_code
    # The enlarged element covers the trajectory's MBR.
    norm = MBR.of_points([UNIT.normalize(x, y) for x, y in points])
    assert placed.element.enlarged_mbr().expanded(1e-12).contains(norm)


@given(point_lists)
@settings(max_examples=150, deadline=None)
def test_xz2_and_xzstar_share_elements(points):
    xz2 = XZ2Index(8, UNIT)
    xzs = XZStarIndex(8, UNIT)
    t = Trajectory("h", points)
    assert xz2.place(t) == xzs.place(t)[0]


# ----------------------------------------------------------------------
# SEE
# ----------------------------------------------------------------------
@given(multi_point_lists)
@settings(max_examples=200, deadline=None)
def test_see_covers_and_anchors(points):
    mbr = MBR.of_points(points)
    element = smallest_enlarged_element(mbr, 12)
    assert element.enlarged_mbr().expanded(1e-12).contains(mbr)
    cell = element.cell_mbr().expanded(1e-12)
    assert cell.contains_point(mbr.min_x, mbr.min_y)


# ----------------------------------------------------------------------
# Ranges
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=500), max_size=80))
@settings(max_examples=200, deadline=None)
def test_merge_values_covers_exactly(values):
    ranges = merge_values_to_ranges(values)
    covered = set()
    for r in ranges:
        covered.update(range(r.start, r.stop))
    assert covered == set(values)
    # Normalised: sorted and non-touching.
    for a, b in zip(ranges, ranges[1:]):
        assert a.stop < b.start


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=1, max_value=20),
        ),
        max_size=30,
    )
)
@settings(max_examples=200, deadline=None)
def test_merge_ranges_preserves_coverage(pairs):
    ranges = [IndexRange(a, a + w) for a, w in pairs]
    merged = merge_ranges(ranges)
    covered = set()
    for r in ranges:
        covered.update(range(r.start, r.stop))
    merged_covered = set()
    for r in merged:
        merged_covered.update(range(r.start, r.stop))
    assert merged_covered == covered


# ----------------------------------------------------------------------
# DP features
# ----------------------------------------------------------------------
@given(point_lists, st.floats(min_value=0.0, max_value=0.2))
@settings(max_examples=150, deadline=None)
def test_dp_boxes_cover_all_points(points, theta):
    features = extract_dp_features(points, theta)
    for x, y in points:
        assert box_oracle.point_to_boxes_distance(features, x, y) <= 1e-9


@given(multi_point_lists, multi_point_lists)
@settings(max_examples=100, deadline=None)
def test_dp_bounds_below_frechet(a, b):
    """Lemmas 13-14 bounds never exceed the exact distance."""
    fa = extract_dp_features(a, 0.05)
    fb = extract_dp_features(b, 0.05)
    exact = discrete_frechet(a, b)
    for px, py in fa.rep_points:
        assert box_oracle.point_to_boxes_distance(fb, px, py) <= exact + 1e-9
    assert box_oracle.box_lower_bound_against(fa, fb) <= exact + 1e-9


# ----------------------------------------------------------------------
# Measures
# ----------------------------------------------------------------------
@given(multi_point_lists, multi_point_lists)
@settings(max_examples=100, deadline=None)
def test_measure_relations(a, b):
    df = discrete_frechet(a, b)
    dh = hausdorff(a, b)
    dd = dtw(a, b)
    assert df >= dh - 1e-9  # Fréchet dominates Hausdorff
    assert dd >= df - 1e-9  # DTW (sum) dominates Fréchet (max)
    assert df >= math.dist(a[0], b[0]) - 1e-9  # Lemma 12
    assert df >= math.dist(a[-1], b[-1]) - 1e-9


@given(point_lists)
@settings(max_examples=100, deadline=None)
def test_measures_identity(points):
    assert discrete_frechet(points, points) == 0.0
    assert hausdorff(points, points) == 0.0
    assert dtw(points, points) == 0.0


# ----------------------------------------------------------------------
# Row keys
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=2**62),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20
    ),
)
@settings(max_examples=200, deadline=None)
def test_rowkey_roundtrip(shard, value, tid):
    assert decode_rowkey(encode_rowkey(shard, value, tid)) == (shard, value, tid)


@given(
    st.integers(min_value=0, max_value=2**62),
    st.integers(min_value=0, max_value=2**62),
)
@settings(max_examples=200, deadline=None)
def test_rowkey_order_isomorphic(v1, v2):
    k1 = encode_rowkey(0, v1, "")
    k2 = encode_rowkey(0, v2, "")
    assert (k1 < k2) == (v1 < v2)


# ----------------------------------------------------------------------
# LSM store model check
# ----------------------------------------------------------------------
ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete", "flush", "compact"]),
        st.integers(min_value=0, max_value=15),
        st.binary(min_size=0, max_size=6),
    ),
    max_size=60,
)


@given(ops)
@settings(max_examples=150, deadline=None)
def test_lsm_matches_dict_model(operations):
    store = LSMStore(flush_threshold=10**9)
    model = {}
    for op, key_id, value in operations:
        key = f"k{key_id:02d}".encode()
        if op == "put":
            store.put(key, value)
            model[key] = value
        elif op == "delete":
            store.delete(key)
            model.pop(key, None)
        elif op == "flush":
            store.flush()
        else:
            store.compact()
    assert dict(store.scan()) == model


# ----------------------------------------------------------------------
# Position codes under hypothesis-generated trajectories
# ----------------------------------------------------------------------
@given(point_lists, st.integers(min_value=2, max_value=10))
@settings(max_examples=200, deadline=None)
def test_position_code_always_legal(points, max_res):
    mbr = MBR.of_points(points)
    element = smallest_enlarged_element(mbr, max_res)
    code = position_code_of(*columns_of(points), element, max_res)
    assert 1 <= code <= 10
    if element.level < max_res:
        assert code != 10
