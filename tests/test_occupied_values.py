"""The store's occupied index values answer occupancy exactly.

``TrajectoryStore`` keeps the sorted index values of its rows.
``holds_index_values`` bisects them, and ``scan_ranges_for`` drops a
planned range holding none of them before any row key is packed.  Both
must give what the table itself gives (``KVTable.holds_any`` per salt)
for every way a store's rows can be laid out: memtable, flushed runs, a
``.seg`` snapshot loaded from its persisted statistics, and a snapshot
reloaded with a WAL tail (statistics rebuilt by a full scan); under
both key encodings, for all salts and for a worker's subset of them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import TraSS, TraSSConfig
from repro.core.storage import INTEGER_KEYS, STRING_KEYS, TrajectoryStore
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like
from repro.index.ranges import IndexRange
from repro.kvstore.persistence import DurableKVTable

SHARDS = 4
LAYOUTS = ("memtable", "flushed", "segment", "wal_tail", "sorted_ingest")


def _config() -> TraSSConfig:
    return TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=12, shards=SHARDS)


def _build(layout: str, encoding: str, directory) -> TrajectoryStore:
    data = tdrive_like(48, seed=17, decimals=5)
    first, rest = data[:24], data[24:]
    store = TrajectoryStore(_config(), encoding)
    if layout == "sorted_ingest":
        store.put_all(data, sorted_ingest=True)
        return store
    store.put_all(first)
    if layout == "flushed":
        store.table.flush_all()  # runs below, memtable above
        store.put_all(rest)
        return store
    if layout == "memtable":
        store.put_all(rest)
        return store
    store.put_all(rest if layout == "segment" else ())
    path = str(directory / f"{layout}-{encoding}")
    store.save(path)
    if layout == "segment":
        return TrajectoryStore.load(path)
    # Rows written after the snapshot live only in the WAL: loading
    # replays them and rebuilds the statistics with a full scan.
    with DurableKVTable(TrajectoryStore.load(path).table, path) as durable:
        for trajectory in rest:
            key, blob, _ = store._prepare(trajectory)
            durable.put(key, blob)
    return TrajectoryStore.load(path)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    directory = tmp_path_factory.mktemp("stores")
    return {
        (layout, encoding): _build(layout, encoding, directory)
        for layout in LAYOUTS
        for encoding in (INTEGER_KEYS, STRING_KEYS)
    }


def test_every_layout_holds_every_row(stores):
    for (layout, _), store in stores.items():
        values = [record.index_value for record in store.all_records()]
        assert len(values) == 48, layout
        assert sorted(store.value_histogram) == sorted(set(values))
        assert sum(store.value_histogram.values()) == store.trajectory_count


@st.composite
def value_ranges(draw, store):
    """Index-value ranges near occupied values (to catch off-by-one
    edges) and anywhere in the index space."""
    occupied = sorted(store.value_histogram)
    total = store.index.total_index_spaces
    out = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            value = draw(st.sampled_from(occupied))
            start = max(0, value + draw(st.integers(-3, 1)))
            stop = min(total, value + draw(st.integers(0, 3)))
        else:
            start = draw(st.integers(0, total - 1))
            stop = start + draw(st.integers(1, max(1, total // 50)))
            stop = min(stop, total)
        if start < stop:
            out.append(IndexRange(start, stop))
    return out


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_occupied_values_agree_with_the_table(stores, data):
    key = data.draw(st.sampled_from(sorted(stores)))
    store = stores[key]
    ranges = data.draw(value_ranges(store))
    shards = data.draw(
        st.one_of(
            st.none(),
            st.sets(st.integers(0, SHARDS - 1), min_size=1).map(sorted),
        )
    )
    holds_any = store.table.holds_any
    values = set(store.value_histogram)
    for r in ranges:
        by_table = any(
            holds_any(s.start, s.stop) for s in store.planned_scan_ranges([r])
        )
        answer = store.holds_index_values(r.start, r.stop)
        assert answer == by_table, (key, r)
        assert answer == any(r.start <= v < r.stop for v in values)
    planned = store.planned_scan_ranges(ranges, shards)
    assert store.scan_ranges_for(ranges, shards) == [
        s for s in planned if holds_any(s.start, s.stop)
    ], (key, ranges, shards)


def test_a_new_value_is_occupied_at_once():
    """The sorted values are rebuilt after a put adds a value, even
    between two reads."""
    store = TrajectoryStore(_config())
    data = tdrive_like(4, seed=3, decimals=5)
    value = store.put(data[0])
    assert store.holds_index_values(value, value + 1)
    later = store.put(data[1])
    assert store.holds_index_values(later, later + 1)
    assert store.scan_ranges_for([IndexRange(later, later + 1)])
    assert not store.holds_index_values(0, min(value, later))


def test_topk_probes_decode_no_segment_block(tmp_path):
    """On a freshly loaded ``.seg`` store, top-k's occupancy probes read
    no block; only the scans of occupied units do."""
    data = tdrive_like(60, seed=21, decimals=5)
    engine = TraSS.build(
        data,
        TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=13, shards=4),
    )
    directory = str(tmp_path / "store")
    engine.save(directory)
    loaded = TraSS.load(directory)
    store, metrics = loaded.store, loaded.metrics
    probe = store.holds_index_values
    decoded = []

    def counting(start, stop):
        before = metrics.segment_blocks_materialized
        answer = probe(start, stop)
        decoded.append(metrics.segment_blocks_materialized - before)
        return answer

    store.holds_index_values = counting
    result = loaded.topk_search(data[3], 5)
    assert len(decoded) > 10
    assert sum(decoded) == 0
    assert result.answers == engine.topk_search(data[3], 5).answers
