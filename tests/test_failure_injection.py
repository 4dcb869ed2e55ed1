"""Failure-injection tests: corruption and malformed inputs must fail
loudly (never silently return wrong answers)."""

import pytest

from repro import TraSS, TraSSConfig, Trajectory, SpaceBounds
from repro.core.codec import decode_row, encode_row
from repro.exceptions import (
    CorruptSSTableError,
    EncodingError,
    GeometryError,
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


class TestOutOfBounds:
    """The two sides of ``SpaceBounds``: a stored trajectory that leaves
    the bounds is rejected at ingest (``normalize`` would clamp it into
    an edge cell, and Lemmas 8-11 would then prune it from its own
    threshold query); a query that leaves them is answered exactly."""

    CFG = TraSSConfig(
        bounds=SpaceBounds(0, 0, 1, 1), max_resolution=10, shards=2
    )
    STRADDLE = Trajectory("straddle", [(0.9, 0.5), (1.3, 0.5)])

    def _rejected(self, call):
        with pytest.raises(GeometryError) as caught:
            call()
        message = str(caught.value)
        assert "'straddle'" in message
        assert "(0, 0) .. (1, 1)" in message

    def test_stored_trajectory_outside_bounds_rejected(self):
        for sorted_ingest in (False, True):
            engine = TraSS(self.CFG)
            self._rejected(
                lambda: engine.add_all([self.STRADDLE], sorted_ingest)
            )
            assert len(engine) == 0
        engine = TraSS(self.CFG)
        self._rejected(lambda: engine.add(self.STRADDLE))
        self._rejected(lambda: TraSS.build([self.STRADDLE], self.CFG))
        # the bounds themselves are inside
        engine.add(Trajectory("edge", [(0.0, 0.0), (1.0, 1.0)]))
        assert len(engine) == 1

    def test_cluster_rejects_before_fork(self):
        from repro.serve import ServingCluster

        data = [("inside", ((0.2, 0.2), (0.3, 0.3)))]
        data.append((self.STRADDLE.tid, self.STRADDLE.points))
        self._rejected(
            lambda: ServingCluster(self.CFG, "integer", data, partitions=2)
        )

    def test_out_of_bounds_queries_match_brute_force(self):
        import random

        from repro.measures import get_measure

        rng = random.Random(5)
        data = []
        for i in range(60):
            x, y = rng.uniform(0.7, 1.0), rng.uniform(0.0, 1.0)
            pts = [(x, y)]
            for _ in range(rng.randint(1, 8)):
                x = min(1.0, max(0.0, x + rng.uniform(-0.03, 0.03)))
                y = min(1.0, max(0.0, y + rng.uniform(-0.03, 0.03)))
                pts.append((x, y))
            data.append(Trajectory(f"t{i}", pts))
        engine = TraSS.build(data, self.CFG)
        measure = get_measure("frechet")
        queries = [
            self.STRADDLE,
            Trajectory("outside", [(1.1, 0.4), (1.2, 0.45)]),
            Trajectory("corner", [(1.05, -0.05), (0.98, 0.02)]),
            Trajectory("far", [(-2.0, -2.0), (-1.9, -2.0)]),
        ]
        for q in queries:
            exact = sorted(
                (measure.distance(q.points, t.points), t.tid) for t in data
            )
            for eps in (0.0, 0.1, 0.3, 4.0):
                got = engine.threshold_search(q, eps).answers
                assert got == {tid: d for d, tid in exact if d <= eps}
            assert engine.topk_search(q, 5).answers == exact[:5]


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
