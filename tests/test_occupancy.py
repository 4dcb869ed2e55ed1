"""Soundness of the occupancy check the read path drops ranges with.

``KVTable.holds_any(start, stop)`` decides which planned ``(range,
salt)`` pairs are dispatched at all, so it must never call an occupied
range empty.  The property drives one table whose keys are spread over
every kind of run — memtables, flushed SSTables and a compact ``.seg``
segment with tiny blocks — with tombstones in each, a forced region
split and open (``None``) range ends, and checks for random ranges:

* ``holds_any`` is False  =>  ``KVTable.scan`` yields no row;
* ``holds_any`` is True   =>  a key (live or tombstone) lies in range;
* checking before scanning materialises exactly as many segment blocks
  as scanning alone.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.kvstore.memtable import TOMBSTONE
from repro.kvstore.segment import write_segment
from repro.kvstore.table import KVTable

keys_st = st.text(alphabet="abcd", min_size=1, max_size=3).map(str.encode)
bound_st = st.one_of(
    st.none(), st.text(alphabet="abcde", max_size=3).map(str.encode)
)


@st.composite
def layouts(draw):
    """``{key: (home, is_tombstone)}`` plus whether to split; a key's
    home is 0 = segment, 1 = SSTable, 2 = memtable."""
    keys = draw(st.sets(keys_st, max_size=40))
    # Half the keys go to the segment, so its blocks hold several keys
    # and a range can start strictly inside one.
    homes = st.sampled_from((0, 0, 0, 1, 2))
    layout = {key: (draw(homes), draw(st.booleans())) for key in sorted(keys)}
    return layout, draw(st.booleans())


@st.composite
def ranges(draw):
    out = []
    for _ in range(draw(st.integers(1, 6))):
        start, stop = draw(bound_st), draw(bound_st)
        if start is not None and stop is not None:
            if start == stop:
                continue
            start, stop = min(start, stop), max(start, stop)
        out.append((start, stop))
    return out


def build_table(layout, split, directory):
    """One table holding ``layout``'s keys in every run kind, and the
    segments it opened (the caller closes them).

    SSTable keys are put first and the region is split around them
    (while they are still memtable rows, as a real split sees them);
    their tombstones land before the flush.  Each region then gets a
    segment of its own segment keys (tombstones included) as its oldest
    run, and the memtable keys go in last.
    """
    table = KVTable(max_region_rows=10**6, flush_threshold=10**9)
    sst = [k for k, (home, _) in layout.items() if home == 1]
    for key in sst:
        table.put(key, b"v" + key)
    if split and len(sst) >= 2:
        table._split_region(0)
    for key in sst:
        if layout[key][1]:
            table.delete(key)
    table.flush_all()
    segments = []
    for i, region in enumerate(table.regions):
        entries = [
            (key, TOMBSTONE if dead else b"v" + key)
            for key, (home, dead) in layout.items()
            if home == 0 and region.owns(key)
        ]
        segment = write_segment(
            str(directory / f"r{i}.seg"), entries, block_logical_bytes=16
        )
        table.adopt_segment(segment)
        region.store.sstables.append(segment)
        segments.append(segment)
    for key, (home, dead) in layout.items():
        if home == 2:
            if dead:
                table.delete(key)
            else:
                table.put(key, b"v" + key)
    return table, segments


def in_range(key, start, stop) -> bool:
    return (start is None or key >= start) and (stop is None or key < stop)


@given(layouts(), ranges())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_holds_any_is_exact_and_costs_no_extra_block(
    tmp_path_factory, drawn, scans
):
    layout, split = drawn
    checked, segments = build_table(
        layout, split, tmp_path_factory.mktemp("checked")
    )
    plain, more = build_table(layout, split, tmp_path_factory.mktemp("plain"))
    try:
        _check_ranges(layout, split, checked, plain, scans)
    finally:
        for segment in segments + more:
            segment.close()


def _check_ranges(layout, split, checked, plain, scans):
    if split and sum(1 for home, _ in layout.values() if home == 1) >= 2:
        assert checked.num_regions == 2
    for start, stop in scans:
        occupied = checked.holds_any(start, stop)
        rows = list(checked.scan(start, stop)) if occupied else []
        alone = list(plain.scan(start, stop))
        if not occupied:
            assert alone == []
        else:
            assert any(in_range(key, start, stop) for key in layout)
        # Exact both ways: tombstone-only ranges count as occupied.
        assert occupied == any(in_range(key, start, stop) for key in layout)
        assert rows == alone
        assert (
            checked.metrics.segment_blocks_materialized
            == plain.metrics.segment_blocks_materialized
        )
