"""Unit tests for the trajectory store (schema of Table I)."""

import pytest

from repro import TraSSConfig, Trajectory, SpaceBounds
from repro.core.storage import (
    INTEGER_KEYS,
    STRING_KEYS,
    TrajectoryStore,
)
from repro.exceptions import KVStoreError, QueryError
from repro.index.ranges import IndexRange

BOUNDS = SpaceBounds(0, 0, 1, 1)


def config(**kw):
    defaults = dict(bounds=BOUNDS, max_resolution=8, dp_tolerance=0.01, shards=4)
    defaults.update(kw)
    return TraSSConfig(**defaults)


class TestWritePath:
    def test_put_and_scan_back(self):
        store = TrajectoryStore(config())
        t = Trajectory("a", [(0.1, 0.1), (0.2, 0.15)])
        value = store.put(t)
        records = list(store.all_records())
        assert len(records) == 1
        assert records[0].tid == "a"
        assert records[0].points == t.points
        assert records[0].index_value == value

    def test_value_histogram(self):
        store = TrajectoryStore(config())
        t = Trajectory("a", [(0.1, 0.1), (0.2, 0.15)])
        v1 = store.put(t)
        v2 = store.put(Trajectory("b", [(0.1, 0.1), (0.2, 0.15)]))
        assert v1 == v2
        assert store.value_histogram[v1] == 2
        assert store.trajectory_count == 2

    def test_same_shape_same_value_different_tids_coexist(self):
        store = TrajectoryStore(config())
        pts = [(0.3, 0.3), (0.35, 0.32)]
        store.put(Trajectory("x", pts))
        store.put(Trajectory("y", pts))
        assert {r.tid for r in store.all_records()} == {"x", "y"}

    def test_bad_encoding_name(self):
        with pytest.raises(QueryError):
            TrajectoryStore(config(), key_encoding="base64")


class TestScanRanges:
    def test_integer_ranges_cover_all_shards(self):
        store = TrajectoryStore(config(shards=4))
        ranges = store.planned_scan_ranges([IndexRange(10, 20)])
        assert len(ranges) == 4  # one per shard
        # An empty table proves every planned pair empty: none dispatch.
        assert store.scan_ranges_for([IndexRange(10, 20)]) == []

    def test_dispatched_ranges_are_the_occupied_planned_pairs(self):
        store = TrajectoryStore(config(shards=4))
        t = Trajectory("a", [(0.5, 0.5), (0.52, 0.51)])
        value = store.put(t)
        plan = [IndexRange(value, value + 1), IndexRange(0, 1)]
        planned = store.planned_scan_ranges(plan)
        dispatched = store.scan_ranges_for(plan)
        assert len(planned) == 8
        assert dispatched == [
            r for r in planned if store.table.holds_any(r.start, r.stop)
        ]
        assert len(dispatched) == 1  # one salt holds the one row

    def test_scan_ranges_find_stored_rows(self):
        store = TrajectoryStore(config())
        t = Trajectory("a", [(0.5, 0.5), (0.52, 0.51)])
        value = store.put(t)
        ranges = store.scan_ranges_for([IndexRange(value, value + 1)])
        rows = store.table.scan_ranges(ranges)
        assert len(rows) == 1
        record = store.decode_record(*rows[0])
        assert record.tid == "a"


class TestStringEncoding:
    def test_string_store_roundtrip(self):
        store = TrajectoryStore(config(), key_encoding=STRING_KEYS)
        t = Trajectory("a", [(0.1, 0.1), (0.2, 0.15)])
        value = store.put(t)
        records = list(store.all_records())
        assert records[0].tid == "a"
        assert records[0].index_value == value

    def test_string_scan_ranges_find_rows(self):
        store = TrajectoryStore(config(), key_encoding=STRING_KEYS)
        t = Trajectory("a", [(0.5, 0.5), (0.52, 0.51)])
        value = store.put(t)
        ranges = store.scan_ranges_for([IndexRange(value, value + 1)])
        rows = store.table.scan_ranges(ranges)
        assert len(rows) == 1

    def test_string_contiguous_range_equivalent(self):
        """A contiguous value range scans the same rows under both
        encodings (order isomorphism)."""
        import random

        rng = random.Random(3)
        cfg = config()
        int_store = TrajectoryStore(cfg, key_encoding=INTEGER_KEYS)
        str_store = TrajectoryStore(cfg, key_encoding=STRING_KEYS)
        values = []
        for i in range(80):
            x, y = rng.random() * 0.8, rng.random() * 0.8
            pts = [
                (x + rng.uniform(0, 0.1), y + rng.uniform(0, 0.1))
                for _ in range(4)
            ]
            t = Trajectory(f"t{i}", pts)
            values.append(int_store.put(t))
            str_store.put(t)
        lo, hi = min(values), max(values) // 2 + 1
        int_rows = int_store.table.scan_ranges(
            int_store.scan_ranges_for([IndexRange(lo, hi)])
        )
        str_rows = str_store.table.scan_ranges(
            str_store.scan_ranges_for([IndexRange(lo, hi)])
        )
        int_tids = {int_store.decode_record(k, v).tid for k, v in int_rows}
        str_tids = {str_store.decode_record(k, v).tid for k, v in str_rows}
        assert int_tids == str_tids

    def test_string_keys_are_longer(self):
        """Figure 13(c): average row-key bytes larger for TraSS-S."""
        cfg = config(max_resolution=16)
        int_store = TrajectoryStore(cfg, key_encoding=INTEGER_KEYS)
        str_store = TrajectoryStore(cfg, key_encoding=STRING_KEYS)
        for i in range(30):
            t = Trajectory(
                f"taxi{i}", [(0.1 + i * 0.001, 0.2), (0.11 + i * 0.001, 0.21)]
            )
            int_store.put(t)
            str_store.put(t)
        assert str_store.average_rowkey_bytes() > int_store.average_rowkey_bytes()


class TestStatistics:
    def test_histograms(self):
        store = TrajectoryStore(config())
        store.put(Trajectory("small", [(0.5, 0.5), (0.501, 0.5)]))
        store.put(Trajectory("big", [(0.1, 0.1), (0.6, 0.7)]))
        res_hist = store.resolution_histogram()
        assert sum(res_hist.values()) == 2
        assert len(res_hist) == 2  # two very different sizes
        code_hist = store.position_code_histogram()
        assert sum(code_hist.values()) == 2

    def test_selectivity(self):
        store = TrajectoryStore(config())
        pts = [(0.3, 0.3), (0.35, 0.32)]
        store.put(Trajectory("x", pts))
        store.put(Trajectory("y", pts))
        store.put(Trajectory("z", [(0.7, 0.7), (0.72, 0.75)]))
        assert store.selectivity() == pytest.approx(2 / 3)

    def test_empty_store_statistics_raise(self):
        store = TrajectoryStore(config())
        with pytest.raises(KVStoreError):
            store.selectivity()
        with pytest.raises(KVStoreError):
            store.average_rowkey_bytes()
