"""Unit tests for row-value serialisation."""

import random

import pytest

from repro.core.codec import encode_row
from repro.core.local_filter import LocalFilter
from repro.core.storage import TrajectoryRecord
from repro.exceptions import KVStoreError
from repro.features.dp_features import DPFeatures, extract_dp_features
from repro.geometry.trajectory import Trajectory
from repro.measures import get_measure
from tests import box_oracle


def decode_row(blob):
    """(tid, points, features) of a row, every field materialised."""
    record = TrajectoryRecord.from_row(blob)
    return record.tid, list(record.points), record.features


def roundtrip(points, theta=0.01, tid="t"):
    features = extract_dp_features(points, theta)
    blob = encode_row(tid, points, features)
    return blob, decode_row(blob)


class TestCodec:
    def test_roundtrip_simple(self):
        points = [(0.0, 0.0), (1.0, 0.5), (2.0, 0.25)]
        blob, (tid, got_points, features) = roundtrip(points, tid="abc")
        assert tid == "abc"
        assert got_points == points

    def test_roundtrip_preserves_features(self):
        rng = random.Random(1)
        points = [(rng.random(), rng.random()) for _ in range(40)]
        original = extract_dp_features(points, 0.05)
        blob = encode_row("x", points, original)
        _, _, restored = decode_row(blob)
        assert restored.rep_indexes == original.rep_indexes
        assert restored.rep_points == original.rep_points
        assert len(restored.frames) == len(original.frames)
        for a, b in zip(box_oracle.boxes(restored), box_oracle.boxes(original)):
            assert a.anchor == b.anchor
            assert a.axis == pytest.approx(b.axis)
            assert a.length == pytest.approx(b.length)

    def test_roundtrip_single_point(self):
        points = [(116.5, 39.9)]
        _, (tid, got, features) = roundtrip(points)
        assert got == points
        assert features.num_boxes == 1

    def test_unicode_tid(self):
        points = [(0.0, 0.0), (1.0, 1.0)]
        features = extract_dp_features(points, 0.01)
        blob = encode_row("货车-42", points, features)
        tid, _, _ = decode_row(blob)
        assert tid == "货车-42"

    def test_empty_points_rejected(self):
        features = extract_dp_features([(0, 0)], 0.01)
        with pytest.raises(KVStoreError):
            encode_row("t", [], features)

    def test_truncated_blob_rejected(self):
        blob, _ = roundtrip([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(KVStoreError):
            decode_row(blob[: len(blob) - 3])

    def test_trailing_garbage_rejected(self):
        blob, _ = roundtrip([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(KVStoreError):
            decode_row(blob + b"junk")

    def test_garbage_rejected(self):
        with pytest.raises(KVStoreError):
            decode_row(b"\xff" * 7)

    # A correctly framed row whose DP columns break the
    # ``extract_dp_features`` invariant (n_rep >= 1 and
    # n_boxes == max(1, n_rep - 1)) is corrupt, not a trajectory the
    # lemmas may decide on.
    @staticmethod
    def _query_over(blob):
        points = [(0.0, 0.0), (1.0, 0.5), (2.0, 0.25)]
        local = LocalFilter(
            Trajectory("q", points), get_measure("frechet"), 0.5, 0.01
        )
        return local.passes(TrajectoryRecord.from_row(blob))

    def test_row_without_boxes_rejected(self):
        points = [(0.0, 0.0), (1.0, 0.5), (2.0, 0.25)]
        features = extract_dp_features(points, 0.01)
        empty = DPFeatures(features.rep_indexes, features.rep_points, ())
        blob = encode_row("t", points, empty)
        # The framing is sound: the head reads.
        assert TrajectoryRecord.from_row(blob).tid == "t"
        with pytest.raises(KVStoreError, match="3 representative .* 0 boxes"):
            decode_row(blob)
        # A query identical to the row is an error, not a Lemma 13
        # rejection.
        with pytest.raises(KVStoreError):
            self._query_over(blob)

    def test_row_without_representatives_rejected(self):
        points = [(0.0, 0.0), (1.0, 0.5), (2.0, 0.25)]
        features = extract_dp_features(points, 0.01)
        blob = encode_row("t", points, DPFeatures((), (), features.frames[:1]))
        assert TrajectoryRecord.from_row(blob).tid == "t"
        with pytest.raises(KVStoreError, match="0 representative .* 1 boxes"):
            decode_row(blob)
        # Lemma 13 would otherwise pass the row vacuously.
        with pytest.raises(KVStoreError):
            self._query_over(blob)
