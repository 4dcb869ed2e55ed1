"""Unit tests for the in-memory SSTable run."""

import pytest

from repro.exceptions import KVStoreError
from repro.kvstore.memtable import TOMBSTONE, MemTable
from repro.kvstore.sstable import SSTable


def build_table(n=20):
    m = MemTable()
    for i in range(n):
        m.put(f"key{i:03d}".encode(), f"value{i}".encode())
    return SSTable.from_entries(m.items())


class TestSSTable:
    def test_get(self):
        t = build_table()
        assert t.get(b"key005") == b"value5"
        assert t.get(b"missing") is None

    def test_get_tombstone(self):
        m = MemTable()
        m.put(b"a", b"1")
        m.delete(b"b")
        t = SSTable.from_entries(m.items())
        assert t.get(b"b") is TOMBSTONE

    def test_out_of_order_rejected(self):
        with pytest.raises(KVStoreError):
            SSTable([b"b", b"a"], [b"1", b"2"])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(KVStoreError):
            SSTable([b"a", b"a"], [b"1", b"2"])

    def test_scan_range(self):
        t = build_table(10)
        keys = [k for k, _ in t.scan(b"key003", b"key007")]
        assert keys == [b"key003", b"key004", b"key005", b"key006"]

    def test_scan_all(self):
        t = build_table(5)
        assert len(list(t.scan())) == 5

    def test_empty_table(self):
        t = SSTable.from_entries([])
        assert len(t) == 0
        assert list(t.scan()) == []

    def test_holds_any(self):
        t = build_table(5)
        assert t.holds_any(b"key002", b"key003")
        assert not t.holds_any(b"key900", None)
        assert not t.holds_any(None, b"key000")
        # Inside the key span but between two keys: exact, not an
        # interval test.
        assert not t.holds_any(b"key0020", b"key003")
        assert t.holds_any(None, None)
        assert not SSTable.from_entries([]).holds_any(None, None)

    def test_holds_any_counts_tombstones(self):
        m = MemTable()
        m.put(b"a", b"1")
        m.delete(b"c")
        t = SSTable.from_entries(m.items())
        assert m.holds_any(b"b", b"d")
        assert t.holds_any(b"b", b"d")
        assert not t.holds_any(b"b", b"c")
