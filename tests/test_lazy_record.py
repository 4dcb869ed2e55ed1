"""The lazy stored-row record and the Lemma 5 endpoint shortcut.

``TrajectoryRecord.from_row`` checks a row's framing and reads only its
tid and endpoints; coordinates, MBR, points and DP features are decoded
on first touch.  ``LocalFilter.passes`` decides Lemma 5 on the
endpoints where it can and Lemma 12 on the endpoints alone.  These
properties pin that:

* every field of a lazy record equals what was encoded, whatever the
  shape of the trajectory, the box mode or the key encoding;
* the endpoint shortcut's Lemma 5 decision is exactly
  ``query.mbr.distance_to_rect(record.mbr) > eps``;
* a row rejected at Lemma 5 or Lemma 12 is never materialised;
* every stage subset tallies the same ``LocalFilterStats`` as an eager
  reference filter that decodes every row in full first.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.storage as storage_module
from repro.core.codec import encode_row
from repro.core.config import TraSSConfig
from repro.core.local_filter import LocalFilter, LocalFilterStats
from repro.core.storage import (
    INTEGER_KEYS,
    STRING_KEYS,
    TrajectoryRecord,
    TrajectoryStore,
)
from repro.data.generators import tdrive_like
from repro.features.dp_features import extract_dp_features
from repro.geometry.mbr import MBR
from repro.geometry.segment import admit_reach
from repro.geometry.trajectory import Trajectory
from repro.index.bounds import SpaceBounds
from repro.measures import get_measure
from tests import box_oracle

THETA = 0.01
#: the covering boxes every store builds (the parameter's test id)
BOX_MODES = ("chord",)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

small = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
large = st.floats(-1e7, 1e7, allow_nan=False, allow_infinity=False)
coords = st.one_of(small, large)


@st.composite
def point_lists(draw, max_points=200):
    """Point sequences with repeats: a pool of distinct points sampled
    with replacement, so duplicates and stationary runs occur."""
    scale = draw(st.sampled_from((small, large)))
    pool = draw(st.lists(st.tuples(scale, scale), min_size=1, max_size=12))
    n = draw(st.integers(1, max_points))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return [pool[i] for i in picks]


def assert_same_record(record, tid, points, features):
    assert record.tid == tid
    assert record.start == tuple(points[0])
    assert record.end == tuple(points[-1])
    assert record.points == tuple(points)
    assert record.mbr == MBR.of_points(points)
    got = record.features
    assert got.rep_indexes == features.rep_indexes
    assert got.rep_points == features.rep_points
    assert got.frames == features.frames


# ----------------------------------------------------------------------
# The lazy record equals the eager decode
# ----------------------------------------------------------------------
@PROPERTY
@given(
    points=point_lists(),
    tid=st.text(
        st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
    ),
    order=st.permutations(("features", "points", "mbr")),
)
def test_from_row_agrees_with_the_encoded_row(points, tid, order):
    features = extract_dp_features(points, THETA)
    record = TrajectoryRecord.from_row(encode_row(tid, points, features), 7)
    assert record.index_value == 7
    # Whichever field is touched first, the others see the same data.
    for name in order:
        getattr(record, name)
    assert_same_record(record, tid, points, features)


def stored_shapes():
    rows = {
        "single": [(116.40, 39.90)],
        "duplicates": [(116.30, 39.80)] * 3 + [(116.31, 39.81)] * 2,
        "stationary": [(116.5, 40.0)] * 4,
        "long": [
            (116.0 + 0.004 * i, 39.5 + 0.003 * math.sin(i / 7.0))
            for i in range(200)
        ],
    }
    for t in tdrive_like(6, seed=3):
        rows[t.tid] = list(t.points)
    return rows


@pytest.mark.parametrize("box_mode", BOX_MODES)
@pytest.mark.parametrize("key_encoding", (INTEGER_KEYS, STRING_KEYS))
def test_stored_records_agree_across_encodings_and_snapshots(
    tmp_path, box_mode, key_encoding
):
    """Records read from memtable rows and from a saved ``.seg``
    snapshot, through both decoders of the store, equal the source."""
    config = TraSSConfig(
        bounds=SpaceBounds(115.0, 39.0, 118.0, 41.0),
        max_resolution=12,
        shards=2,
    )
    shapes = stored_shapes()
    store = TrajectoryStore(config, key_encoding)
    store.put_all(Trajectory(tid, pts) for tid, pts in shapes.items())
    store.save(str(tmp_path))
    for current in (store, TrajectoryStore.load(str(tmp_path))):
        seen = set()
        for key, value in current.table.full_scan():
            by_key = current.decode_record(key, value)
            scan_side = current.record_decoder(key, value)
            points = shapes[by_key.tid]
            expected = extract_dp_features(points, THETA)
            assert by_key.index_value in current.value_histogram
            assert scan_side.index_value == -1
            for record in (by_key, scan_side):
                assert_same_record(record, by_key.tid, points, expected)
            seen.add(by_key.tid)
        assert seen == set(shapes)


# ----------------------------------------------------------------------
# The Lemma 5 endpoint shortcut decides exactly as the MBR gap
# ----------------------------------------------------------------------
@st.composite
def lemma5_cases(draw):
    """A query, a stored row and a threshold.  Thresholds include the
    exact MBR gap and each endpoint's exact distance to the query MBR,
    plus their float neighbours, so ties at ``eps`` are exercised;
    single-point and axis-parallel trajectories give point and segment
    MBRs."""
    query = draw(point_lists(max_points=6))
    row = draw(point_lists(max_points=24))
    if draw(st.booleans()):
        # A segment MBR: every point on one horizontal or vertical line.
        axis = draw(st.integers(0, 1))
        row = [
            (p[0], row[0][1]) if axis == 0 else (row[0][0], p[1]) for p in row
        ]
    if draw(st.booleans()):
        shift = draw(coords)
        row = [(x + shift, y - shift) for x, y in row]
    q_mbr = MBR.of_points(query)
    anchors = [
        q_mbr.distance_to_rect(MBR.of_points(row)),
        q_mbr.distance_to_point(*row[0]),
        q_mbr.distance_to_point(*row[-1]),
    ]
    anchor = draw(st.sampled_from(anchors))
    eps = draw(
        st.one_of(
            st.just(anchor),
            st.just(math.nextafter(anchor, math.inf)),
            st.just(math.nextafter(anchor, -math.inf)),
            st.floats(0.0, 1e8, allow_nan=False),
        )
    )
    return query, row, max(eps, 0.0)


@PROPERTY
@given(case=lemma5_cases())
def test_endpoint_shortcut_decides_exactly_as_the_mbr_gap(case):
    query_points, row, eps = case
    query = Trajectory("q", query_points)
    blob = encode_row("t", row, extract_dp_features(row, THETA))
    local = LocalFilter(
        query, get_measure("frechet"), eps, THETA, stages=frozenset({"mbr"})
    )
    record = TrajectoryRecord.from_row(blob)
    expected = query.mbr.distance_to_rect(record.mbr) > eps
    assert local.passes(TrajectoryRecord.from_row(blob)) is not expected
    assert local.stats.rejected_mbr == int(expected)


# ----------------------------------------------------------------------
# Rows rejected on the head are never materialised
# ----------------------------------------------------------------------
def neighbourhood(count=120, seed=5):
    """Stored rows around the first trajectory of a small T-Drive-like
    set, so every lemma has work to do."""
    trajectories = tdrive_like(count, seed=seed)
    return trajectories[0], [
        (t.tid, list(t.points)) for t in trajectories[1:]
    ]


def test_rows_rejected_at_lemma_5_or_12_are_never_materialised(monkeypatch):
    calls = {"coords": 0, "tail": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(
        storage_module, "read_coords", counting("coords", storage_module.read_coords)
    )
    monkeypatch.setattr(
        storage_module, "decode_tail", counting("tail", storage_module.decode_tail)
    )
    query, rows = neighbourhood()
    blobs = [
        encode_row(tid, pts, extract_dp_features(pts, THETA)) for tid, pts in rows
    ]
    seen = {"mbr": 0, "start_end": 0, "shortcut": 0}
    for eps in (0.002, 0.01, 0.05):
        local = LocalFilter(query, get_measure("frechet"), eps, THETA)
        for blob in blobs:
            calls.update(coords=0, tail=0)
            record = TrajectoryRecord.from_row(blob)
            # The constructor reads the head only.
            assert calls == {"coords": 0, "tail": 0}
            before = (local.stats.rejected_mbr, local.stats.rejected_start_end)
            passed = local.passes(record)
            after = (local.stats.rejected_mbr, local.stats.rejected_start_end)
            if before == after:
                continue
            assert not passed
            # A head rejection never decodes the DP columns ...
            assert calls["tail"] == 0
            # ... and reads the coordinates at most once, for the MBR.
            assert calls["coords"] <= 1
            if calls["coords"] == 0:
                seen["shortcut"] += 1
            seen["mbr" if after[0] > before[0] else "start_end"] += 1
    # The dataset exercises both lemmas and the shortcut.
    assert all(seen.values()), seen


# ----------------------------------------------------------------------
# Stage attribution equals an eager reference filter
# ----------------------------------------------------------------------
def eager_stats(query, rows, measure, eps, stages):
    """The local filter as it ran before records were lazy: decode every
    row in full, then Lemma 5 on the MBRs, Lemma 12 on the first and
    last points, Lemmas 13 and 14 on the features."""
    stats = LocalFilterStats()
    q_features = extract_dp_features(query.points, THETA)
    for _, points, features in rows:
        stats.evaluated += 1
        if "mbr" in stages and query.mbr.distance_to_rect(MBR.of_points(points)) > eps:
            stats.rejected_mbr += 1
            continue
        if "start_end" in stages and measure.supports_start_end_filter:
            (qsx, qsy), (qex, qey) = query.points[0], query.points[-1]
            (tsx, tsy), (tex, tey) = points[0], points[-1]
            if (
                math.hypot(qsx - tsx, qsy - tsy) > eps
                or math.hypot(qex - tex, qey - tey) > eps
            ):
                stats.rejected_start_end += 1
                continue
        # Lemma 13 admits up to ``admit_reach``, as Lemma 14 does.
        reach = admit_reach(
            eps, max(box_oracle.box_scale(features), box_oracle.box_scale(q_features))
        )
        if "rep_points" in stages and (
            any(
                box_oracle.point_exceeds_boxes(q_features, x, y, reach)
                for x, y in features.rep_points
            )
            or any(
                box_oracle.point_exceeds_boxes(features, x, y, reach)
                for x, y in q_features.rep_points
            )
        ):
            stats.rejected_rep_points += 1
            continue
        if (
            "boxes" in stages
            and features.num_boxes * q_features.num_boxes
            <= LocalFilter.MAX_BOX_PAIRS
            and (
                box_oracle.exceeds_box_bound(features, q_features, eps)
                or box_oracle.exceeds_box_bound(q_features, features, eps)
            )
        ):
            stats.rejected_boxes += 1
            continue
        stats.passed += 1
    return stats


@pytest.mark.parametrize("measure_name", ("frechet", "hausdorff"))
def test_every_stage_subset_tallies_as_the_eager_filter(measure_name):
    query, raw_rows = neighbourhood(count=60, seed=9)
    rows = [
        (tid, pts, extract_dp_features(pts, THETA)) for tid, pts in raw_rows
    ]
    blobs = [encode_row(tid, pts, f) for tid, pts, f in rows]
    measure = get_measure(measure_name)
    stages_all = sorted(LocalFilter.ALL_STAGES)
    subsets = [
        frozenset(combo)
        for n in range(len(stages_all) + 1)
        for combo in itertools.combinations(stages_all, n)
    ]
    rejected_somewhere = LocalFilterStats()
    for eps in (0.005, 0.03):
        for stages in subsets:
            local = LocalFilter(query, measure, eps, THETA, stages=stages)
            for blob in blobs:
                local.passes(TrajectoryRecord.from_row(blob))
            expected = eager_stats(query, rows, measure, eps, stages)
            assert local.stats == expected, (eps, sorted(stages))
            rejected_somewhere.merge_from(local.stats)
    # The dataset is not vacuous: the head lemmas and Lemma 13 reject.
    assert rejected_somewhere.rejected_mbr > 0
    assert rejected_somewhere.rejected_rep_points > 0
    if measure.supports_start_end_filter:
        assert rejected_somewhere.rejected_start_end > 0
