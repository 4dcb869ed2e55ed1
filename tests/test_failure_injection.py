"""Failure-injection tests: corruption and malformed inputs must fail
loudly (never silently return wrong answers)."""

import pytest

from repro import TraSS, TraSSConfig, Trajectory, SpaceBounds
from repro.core.codec import decode_row, encode_row
from repro.exceptions import (
    CorruptSSTableError,
    EncodingError,
    KVStoreError,
    QueryError,
)
from repro.features.dp_features import extract_dp_features
from repro.index.xzstar import XZStarIndex
from repro.kvstore.sstable import SSTable


class TestCorruptData:
    def test_bit_flips_never_pass_sstable_checksum(self):
        import random

        rng = random.Random(81)
        entries = [
            (f"key{i:03d}".encode(), f"value{i}".encode()) for i in range(40)
        ]
        table = SSTable.from_entries(entries)
        blob = table.to_bytes()
        for _ in range(25):
            corrupted = bytearray(blob)
            pos = rng.randrange(len(blob) - 4)  # keep the CRC intact
            corrupted[pos] ^= 1 << rng.randrange(8)
            with pytest.raises(CorruptSSTableError):
                SSTable.from_bytes(bytes(corrupted))

    def test_row_blob_truncations_always_detected(self):
        points = [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]
        blob = encode_row("t", points, extract_dp_features(points, 0.01))
        for cut in range(len(blob)):
            with pytest.raises(KVStoreError):
                decode_row(blob[:cut])

    def test_decode_rejects_foreign_values(self):
        index = XZStarIndex(4, SpaceBounds(0, 0, 1, 1))
        with pytest.raises(EncodingError):
            index.decode(index.total_index_spaces + 100)


class TestBadQueries:
    def setup_method(self):
        cfg = TraSSConfig(
            bounds=SpaceBounds(0, 0, 1, 1), max_resolution=8, shards=2
        )
        self.engine = TraSS.build(
            [Trajectory("a", [(0.5, 0.5), (0.51, 0.5)])], cfg
        )

    def test_negative_threshold(self):
        with pytest.raises(QueryError):
            self.engine.threshold_search(
                Trajectory("q", [(0.5, 0.5)]), -0.01
            )

    def test_zero_k(self):
        with pytest.raises(QueryError):
            self.engine.topk_search(Trajectory("q", [(0.5, 0.5)]), 0)

    def test_empty_query_trajectory(self):
        from repro.exceptions import GeometryError

        with pytest.raises(GeometryError):
            Trajectory("q", [])

    def test_out_of_bounds_query_still_answers(self):
        """Coordinates outside the configured bounds clamp into the
        space rather than corrupting the index walk."""
        q = Trajectory("q", [(5.0, 5.0), (5.1, 5.0)])
        result = self.engine.threshold_search(q, 0.01)
        assert result.answers == {}


class TestConfigValidation:
    def test_bad_shards(self):
        with pytest.raises(QueryError):
            TraSSConfig(shards=0)
        with pytest.raises(QueryError):
            TraSSConfig(shards=500)

    def test_bad_dp_tolerance(self):
        with pytest.raises(QueryError):
            TraSSConfig(dp_tolerance=-1)

    def test_bad_measure(self):
        with pytest.raises(QueryError):
            TraSSConfig(measure_name="nope").make_measure()

    def test_bounds_must_be_space_bounds(self):
        with pytest.raises(QueryError, match="SpaceBounds"):
            TraSSConfig(bounds=(0, 0, 1, 1))
