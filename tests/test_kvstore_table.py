"""Unit tests for regions and the table facade."""

import random

import pytest

from repro.exceptions import KVStoreError, RegionError
from repro.kvstore.filters import (
    AcceptAllFilter,
    ConjunctionFilter,
    PredicateFilter,
    PrefixFilter,
)
from repro.kvstore.region import Region
from repro.kvstore.table import KVTable, ScanRange


class TestRegion:
    def test_ownership(self):
        r = Region(b"b", b"d")
        assert r.owns(b"b")
        assert r.owns(b"c")
        assert not r.owns(b"d")
        assert not r.owns(b"a")

    def test_open_ended(self):
        r = Region(None, None)
        assert r.owns(b"")
        assert r.owns(b"\xff\xff")

    def test_misrouted_put_raises(self):
        r = Region(b"b", b"d")
        with pytest.raises(RegionError):
            r.put(b"a", b"1")

    def test_split(self):
        r = Region(None, None)
        for i in range(10):
            r.put(f"k{i}".encode(), b"v")
        left, right = r.split()
        assert left.end_key == right.start_key
        assert left.row_count + right.row_count == 10
        for i in range(10):
            key = f"k{i}".encode()
            owner = left if left.owns(key) else right
            assert owner.get(key) == b"v"

    def test_split_too_small_raises(self):
        r = Region(None, None)
        r.put(b"only", b"v")
        with pytest.raises(RegionError):
            r.split()

    def test_scan_respects_region_bounds(self):
        r = Region(b"b", b"d")
        r.put(b"b1", b"v")
        r.put(b"c1", b"v")
        assert [k for k, _ in r.scan(None, None)] == [b"b1", b"c1"]

    def test_row_count_tracks_overwrites_and_deletes(self):
        r = Region(None, None)
        r.put(b"a", b"1")
        r.put(b"a", b"2")
        assert r.row_count == 1
        r.delete(b"a")
        assert r.row_count == 0


class TestKVTable:
    def test_put_get(self):
        t = KVTable()
        t.put(b"a", b"1")
        assert t.get(b"a") == b"1"
        assert t.get(b"b") is None
        assert t.metrics.puts == 1
        assert t.metrics.gets == 2

    def test_auto_split(self):
        t = KVTable(max_region_rows=10)
        for i in range(100):
            t.put(f"key{i:03d}".encode(), b"v")
        assert t.num_regions > 1
        assert t.row_count == 100
        # Every key still readable after splits.
        for i in range(100):
            assert t.get(f"key{i:03d}".encode()) == b"v"

    def test_scan_across_regions(self):
        t = KVTable(max_region_rows=8)
        keys = [f"key{i:03d}".encode() for i in range(50)]
        for key in keys:
            t.put(key, key)
        got = [k for k, _ in t.scan()]
        assert got == keys  # global order preserved across regions

    def test_scan_range(self):
        t = KVTable(max_region_rows=8)
        for i in range(50):
            t.put(f"key{i:03d}".encode(), b"v")
        got = [k for k, _ in t.scan(b"key010", b"key015")]
        assert got == [f"key{i:03d}".encode() for i in range(10, 15)]

    def test_scan_counts_rejected_rows_as_io(self):
        """The Figure 11 distinction: rows the filter rejects still cost
        scan I/O."""
        t = KVTable()
        for i in range(20):
            t.put(f"key{i:03d}".encode(), b"even" if i % 2 == 0 else b"odd")
        keep_even = PredicateFilter(lambda k, v: v == b"even")
        rows = list(t.scan(None, None, keep_even))
        assert len(rows) == 10
        assert t.metrics.rows_scanned == 20
        assert t.metrics.rows_returned == 10
        assert t.metrics.filter_rejections == 10

    def test_scan_ranges_multi(self):
        t = KVTable()
        for i in range(30):
            t.put(f"key{i:03d}".encode(), b"v")
        ranges = [
            ScanRange(b"key000", b"key003"),
            ScanRange(b"key020", b"key022"),
        ]
        got = [k for k, _ in t.scan_ranges(ranges)]
        assert got == [b"key000", b"key001", b"key002", b"key020", b"key021"]
        assert t.metrics.range_seeks == 2

    def test_delete(self):
        t = KVTable()
        t.put(b"a", b"1")
        t.delete(b"a")
        assert t.get(b"a") is None

    def test_empty_scan_range_rejected(self):
        with pytest.raises(KVStoreError):
            ScanRange(b"b", b"a")

    def test_region_routing_after_many_splits(self):
        rng = random.Random(5)
        t = KVTable(max_region_rows=16)
        model = {}
        for _ in range(500):
            key = f"{rng.randrange(10**6):06d}".encode()
            value = str(rng.random()).encode()
            t.put(key, value)
            model[key] = value
        assert t.num_regions > 4
        assert dict(t.full_scan()) == model

    def test_flush_and_compact_preserve_data(self):
        t = KVTable(max_region_rows=20)
        for i in range(60):
            t.put(f"key{i:03d}".encode(), b"v")
        t.flush_all()
        t.compact_all()
        assert t.row_count == 60
        assert len(list(t.full_scan())) == 60


class TestFilters:
    def test_accept_all(self):
        assert AcceptAllFilter().accept(b"k", b"v")

    def test_prefix(self):
        f = PrefixFilter(b"ab")
        assert f.accept(b"abc", b"")
        assert not f.accept(b"ba", b"")

    def test_conjunction_short_circuits(self):
        calls = []

        def tracking(result):
            def predicate(k, v):
                calls.append(result)
                return result

            return PredicateFilter(predicate)

        f = ConjunctionFilter([tracking(False), tracking(True)])
        assert not f.accept(b"k", b"v")
        assert calls == [False]


class TestIOMetrics:
    def test_snapshot_keys_are_the_fields_in_order(self):
        import dataclasses

        from repro.kvstore.metrics import IOMetrics

        metrics = IOMetrics(rows_scanned=3, puts=2, segment_bytes_logical=9)
        names = [f.name for f in dataclasses.fields(IOMetrics)]
        snapshot = metrics.snapshot()
        assert list(snapshot) == names
        assert snapshot == {n: getattr(metrics, n) for n in names}
        snapshot["puts"] = 99  # a copy, not a view
        assert metrics.puts == 2

    def test_diff_and_reset(self):
        from repro.kvstore.metrics import IOMetrics

        metrics = IOMetrics(rows_scanned=3, gets=1)
        before = metrics.snapshot()
        metrics.rows_scanned += 4
        metrics.breaker_trips += 1
        delta = metrics.diff(before)
        assert list(delta) == list(before)
        assert delta["rows_scanned"] == 4 and delta["breaker_trips"] == 1
        assert sum(delta.values()) == 5
        # A partial snapshot counts missing fields from zero.
        assert metrics.diff({"gets": 1})["rows_scanned"] == 7
        metrics.reset()
        assert set(metrics.snapshot().values()) == {0}
