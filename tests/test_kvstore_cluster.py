"""Tests for the cluster cost model (per-region scan load on N nodes)."""

import pytest

from repro.exceptions import KVStoreError
from repro.kvstore.cluster import ClusterModel
from repro.kvstore.table import KVTable, ScanRange


class TestClusterModel:
    def _table(self, rows=200, max_region_rows=25):
        table = KVTable(max_region_rows=max_region_rows)
        for i in range(rows):
            table.put(f"key{i:05d}".encode(), b"v")
        return table

    def test_validation(self):
        with pytest.raises(KVStoreError):
            ClusterModel(self._table(), nodes=0)

    def test_negative_row_cost_rejected(self):
        with pytest.raises(KVStoreError):
            ClusterModel(self._table(), nodes=2, row_cost=-1.0)

    def test_negative_seek_cost_rejected(self):
        with pytest.raises(KVStoreError):
            ClusterModel(self._table(), nodes=2, seek_cost=-0.5)

    def test_full_scan_load_covers_all_rows(self):
        table = self._table()
        model = ClusterModel(table, nodes=4)
        loads = model.simulate_scan([ScanRange(None, None)])
        assert sum(l.rows_scanned for l in loads.values()) == 200
        assert len(loads) == 4

    def test_makespan_at_least_mean(self):
        table = self._table()
        model = ClusterModel(table, nodes=4, row_cost=1.0, seek_cost=0.0)
        makespan = model.makespan([ScanRange(None, None)])
        assert makespan >= 200 / 4

    def test_skew_of_narrow_scan_is_high(self):
        """A scan hitting one region concentrates on one node."""
        table = self._table()
        model = ClusterModel(table, nodes=4)
        narrow = [ScanRange(b"key00000", b"key00005")]
        assert model.skew(narrow) == pytest.approx(4.0)

    def test_skew_of_balanced_scan_is_low(self):
        table = self._table()
        model = ClusterModel(table, nodes=4)
        assert model.skew([ScanRange(None, None)]) < 2.0

    def test_seek_cost_penalises_many_ranges(self):
        """Covering the same rows with more ranges costs more seeks."""
        table = self._table()
        model = ClusterModel(table, nodes=2, row_cost=0.0, seek_cost=5.0)
        span = ScanRange(b"key00000", b"key00010")
        one = model.makespan([span])
        many = model.makespan(
            [
                ScanRange(f"key{i:05d}".encode(), f"key{i + 1:05d}".encode())
                for i in range(0, 10)
            ]
        )
        assert many > one

    def test_empty_table_skew_is_one(self):
        model = ClusterModel(KVTable(), nodes=3)
        assert model.skew([ScanRange(None, None)]) == 1.0

    def test_bisect_routing_matches_linear_sweep(self):
        """simulate_scan's bisect routing must attribute exactly the
        loads the old O(ranges x regions) linear sweep did."""
        table = self._table(rows=300, max_region_rows=20)
        model = ClusterModel(table, nodes=4)
        ranges = [
            ScanRange(None, b"key00010"),
            ScanRange(b"key00055", b"key00056"),
            ScanRange(b"key00100", b"key00220"),
            ScanRange(b"key00290", None),
            ScanRange(b"zzz", None),  # beyond every row
        ]
        loads = model.simulate_scan(ranges)

        # Linear reference implementation (the pre-bisect behavior).
        expected = {node: [0, 0] for node in range(model.nodes)}
        for scan_range in ranges:
            for idx, region in enumerate(table.regions):
                starts_before_stop = (
                    scan_range.stop is None
                    or region.start_key is None
                    or region.start_key < scan_range.stop
                )
                ends_after_start = (
                    scan_range.start is None
                    or region.end_key is None
                    or scan_range.start < region.end_key
                )
                if not (starts_before_stop and ends_after_start):
                    continue
                node = expected[idx % model.nodes]
                node[0] += sum(
                    1 for _ in region.scan(scan_range.start, scan_range.stop)
                )
                node[1] += 1
        assert {
            n: [load.rows_scanned, load.range_seeks]
            for n, load in loads.items()
        } == expected

    def test_mid_query_split_does_not_double_count(self):
        """A region split landing between ranges of one simulated query
        must not shift node assignment or count the split region's rows
        both as the whole and as its halves: the model snapshots the
        region list once per simulate_scan call."""
        table = self._table(rows=100, max_region_rows=25)
        model = ClusterModel(table, nodes=3)
        full = [ScanRange(None, None), ScanRange(None, None)]
        baseline = model.simulate_scan(full)

        def ranges_with_midway_split():
            yield ScanRange(None, None)
            # Fault injection can force a split from inside region.scan;
            # model it landing between the two ranges of this query.
            table._split_region(0)
            yield ScanRange(None, None)

        loads = model.simulate_scan(ranges_with_midway_split())
        total = sum(l.rows_scanned for l in loads.values())
        assert total == sum(l.rows_scanned for l in baseline.values()) == 200
        assert {
            n: (l.rows_scanned, l.range_seeks) for n, l in loads.items()
        } == {
            n: (l.rows_scanned, l.range_seeks) for n, l in baseline.items()
        }
