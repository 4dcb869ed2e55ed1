"""The compact mmap segment format: codec round-trip (hypothesis),
corrupt-file isolation, heterogeneous run stacks, lazy loading, and
save/load equivalence across plain / cached / chaos paths.
"""

import os
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import TraSS, TraSSConfig, Trajectory
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like
from repro.exceptions import CorruptSegmentError, FatalError, KVStoreError
from repro.kvstore import segment as segment_module
from repro.kvstore.lsm import LSMStore
from repro.kvstore.memtable import TOMBSTONE
from repro.kvstore.segment import (
    CODEC_TRAJ,
    Segment,
    build_segment_bytes,
    write_segment,
)
from repro.kvstore.sstable import SSTable

pytestmark = pytest.mark.segment


def _entries_from(pairs, tombstones=()):
    """Sorted unique (key, value|TOMBSTONE) list from raw pairs."""
    merged = {}
    for key, value in pairs:
        merged[key] = value
    for key in tombstones:
        merged[key] = TOMBSTONE
    return sorted(merged.items())


def _write(tmp_path, entries, name="t.seg", **kwargs):
    path = str(tmp_path / name)
    return write_segment(path, entries, **kwargs), path


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.binary(min_size=1, max_size=24),
            st.binary(min_size=0, max_size=64),
        ),
        max_size=60,
    ),
    st.sets(st.binary(min_size=1, max_size=24), max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_roundtrip_property(tmp_path_factory, pairs, tombstones):
    """encode -> mmap -> decode == original, tombstones included."""
    entries = _entries_from(pairs, tombstones)
    path = str(tmp_path_factory.mktemp("seg") / "t.seg")
    segment = write_segment(path, entries, block_logical_bytes=128)
    try:
        assert list(segment.scan()) == entries
        assert len(segment) == len(entries)
        for key, value in entries:
            got = segment.get(key)
            assert got is TOMBSTONE if value is TOMBSTONE else got == value
        assert segment.get(b"\xff" * 30) is None
    finally:
        segment.close()


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_roundtrip_trajectory_rows(tmp_path_factory, seed, decimals):
    """Real engine rows (varied precision) survive byte-for-byte."""
    trajs = tdrive_like(
        12, seed=seed, decimals=decimals if decimals else None
    )
    engine = TraSS.build(
        trajs,
        TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=12, shards=2),
    )
    entries = sorted(
        (k, v)
        for region in engine.store.table.regions
        for k, v in region.store.scan()
    )
    path = str(tmp_path_factory.mktemp("seg") / "t.seg")
    segment = write_segment(path, entries)
    try:
        assert list(segment.scan()) == entries
    finally:
        segment.close()


def test_empty_segment(tmp_path):
    segment, _ = _write(tmp_path, [])
    assert len(segment) == 0
    assert list(segment.scan()) == []
    assert segment.get(b"x") is None
    assert not segment.holds_any(None, None)
    segment.close()


def test_scan_ranges_and_blocks(tmp_path):
    entries = [(b"k%04d" % i, b"v%d" % i) for i in range(400)]
    segment, _ = _write(tmp_path, entries, block_logical_bytes=256)
    assert segment.num_blocks > 3
    assert list(segment.scan(b"k0100", b"k0200")) == entries[100:200]
    # A narrow scan must not materialise every block.
    assert segment.blocks_materialized < segment.num_blocks
    assert list(segment.scan(None, b"k0010")) == entries[:10]
    assert list(segment.scan(b"k0395", None)) == entries[395:]
    segment.close()


def test_holds_any_is_exact_inside_a_block(tmp_path):
    """A range that starts strictly inside a block and holds no key is
    proven empty by bisecting that one block, which is the block a scan
    of the range would materialise anyway."""
    entries = [(b"k%04d" % i, b"v%d" % i) for i in range(0, 400, 2)]
    segment, _ = _write(tmp_path, entries, block_logical_bytes=256)
    assert segment.num_blocks > 3
    assert not segment.holds_any(b"k0101", b"k0102")
    assert segment.blocks_materialized == 1
    assert list(segment.scan(b"k0101", b"k0102")) == []
    assert segment.blocks_materialized == 1
    assert segment.holds_any(b"k0101", b"k0103")
    # Before, between and after the blocks: the index alone answers.
    assert not segment.holds_any(None, b"k0000")
    assert not segment.holds_any(b"k0399", None)
    assert segment.holds_any(None, None)
    assert segment.blocks_materialized == 1
    segment.close()


def test_out_of_order_entries_rejected(tmp_path):
    from repro.exceptions import KVStoreError

    with pytest.raises(KVStoreError):
        build_segment_bytes([(b"b", b"1"), (b"a", b"2")])
    with pytest.raises(KVStoreError):
        build_segment_bytes([(b"a", b"1"), (b"a", b"2")])


def test_lossless_quantisation_on_gps_data(tmp_path):
    """Decimal-precision trajectories hit the columnar codec and beat
    the 3x compression floor; answers stay byte-identical."""
    trajs = tdrive_like(100, seed=7, decimals=5)
    engine = TraSS.build(
        trajs,
        TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=14, shards=4),
    )
    entries = sorted(
        (k, v)
        for region in engine.store.table.regions
        for k, v in region.store.scan()
    )
    segment, _ = _write(tmp_path, entries)
    try:
        assert list(segment.scan()) == entries
        assert any(m.codec == CODEC_TRAJ for m in segment._metas)
        assert segment.compression_ratio >= 3.0, segment.compression_ratio
    finally:
        segment.close()


# ----------------------------------------------------------------------
# Corruption: typed errors, block-level isolation
# ----------------------------------------------------------------------
def test_corrupt_index_raises_typed_error(tmp_path):
    entries = [(b"k%03d" % i, b"v%d" % i) for i in range(50)]
    data = build_segment_bytes(entries)
    path = str(tmp_path / "bad.seg")
    # Flip a byte inside the index section (near the end of the file).
    blob = bytearray(data)
    blob[-10] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(CorruptSegmentError):
        Segment.open(path)
    # The typed error is a fatal store error by contract.
    assert issubclass(CorruptSegmentError, FatalError)
    assert issubclass(CorruptSegmentError, KVStoreError)


def test_corrupt_header_and_truncation(tmp_path):
    entries = [(b"k%03d" % i, b"v%d" % i) for i in range(10)]
    data = build_segment_bytes(entries)
    bad_magic = b"XXXX" + data[4:]
    path = str(tmp_path / "bad.seg")
    with open(path, "wb") as fh:
        fh.write(bad_magic)
    with pytest.raises(CorruptSegmentError):
        Segment.open(path)
    with open(path, "wb") as fh:
        fh.write(data[:10])
    with pytest.raises(CorruptSegmentError):
        Segment.open(path)
    with open(path, "wb") as fh:
        fh.write(b"")
    with pytest.raises(CorruptSegmentError):
        Segment.open(path)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_corrupt_block_isolation_fuzz(tmp_path_factory, data):
    """A flipped byte in one block payload raises CorruptSegmentError
    when that block is touched — and only then; other blocks serve."""
    entries = [(b"k%04d" % i, b"v%d" % i * 3) for i in range(300)]
    blob = bytearray(build_segment_bytes(entries, block_logical_bytes=256))
    path = str(tmp_path_factory.mktemp("seg") / "t.seg")
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    clean = Segment.open(path)
    metas = list(clean._metas)
    clean.close()
    assert len(metas) >= 3
    target = data.draw(st.integers(0, len(metas) - 1), label="block")
    meta = metas[target]
    offset = meta.offset + data.draw(
        st.integers(0, meta.length - 1), label="byte"
    )
    flip = data.draw(st.integers(1, 255), label="mask")
    blob[offset] ^= flip
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    segment = Segment.open(path)  # index is intact: open succeeds
    try:
        for i, m in enumerate(metas):
            block_entries = [
                (k, v)
                for k, v in entries
                if m.first_key <= k <= m.last_key
            ]
            if i == target:
                with pytest.raises(CorruptSegmentError):
                    list(segment.scan(m.first_key, m.last_key + b"\x00"))
            else:
                got = list(segment.scan(m.first_key, m.last_key + b"\x00"))
                assert got == block_entries
    finally:
        segment.close()


def test_block_crc_detects_bitflip_via_get(tmp_path):
    entries = [(b"k%04d" % i, b"v%d" % i) for i in range(100)]
    blob = bytearray(build_segment_bytes(entries, block_logical_bytes=128))
    path = str(tmp_path / "t.seg")
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    clean = Segment.open(path)
    meta = clean._metas[0]
    clean.close()
    blob[meta.offset] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    segment = Segment.open(path)
    try:
        with pytest.raises(CorruptSegmentError):
            segment.get(entries[0][0])
    finally:
        segment.close()


@pytest.mark.parametrize("mode", [1, 3, 255])
def test_unknown_box_mode_is_a_typed_error(tmp_path, monkeypatch, mode):
    """A TRAJ block whose covering-box byte is neither 0 (chord) nor 2
    (explicit) — mode 1 held the removed min-area boxes — raises
    ``CorruptSegmentError`` naming the mode when the block is read.
    The block is a chord block with its header byte rewritten before
    the block CRC is taken, so only the mode check can catch it."""
    trajs = tdrive_like(20, seed=11, decimals=5)
    engine = TraSS.build(
        trajs, TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=12, shards=2)
    )
    entries = sorted(
        (k, v)
        for region in engine.store.table.regions
        for k, v in region.store.scan()
    )
    box_byte = 6  # after n_rows (4 bytes), points codec and decimals
    encode = segment_module._encode_block
    seen = []

    def rewrite_box_mode(keys, values):
        codec, payload = encode(keys, values)
        if codec == CODEC_TRAJ:
            seen.append(payload[box_byte])
            head, tail = payload[:box_byte], payload[box_byte + 1 :]
            payload = head + bytes([mode]) + tail
        return codec, payload

    monkeypatch.setattr(segment_module, "_encode_block", rewrite_box_mode)
    segment, _ = _write(tmp_path, entries)
    try:
        assert seen and set(seen) == {0}  # every block was a chord block
        with pytest.raises(
            CorruptSegmentError, match=f"covering-box mode {mode};"
        ):
            list(segment.scan())
    finally:
        segment.close()


# ----------------------------------------------------------------------
# Heterogeneous run stacks
# ----------------------------------------------------------------------
def test_heterogeneous_runs_merge_identically(tmp_path):
    """memtable + SSTable + segment behind one store iterator: scans
    and gets shadow exactly as an all-SSTable stack would."""
    store = LSMStore(flush_threshold=10**9, compaction_trigger=10**9)
    reference = {}
    # Oldest layer -> segment.
    old = [(b"k%03d" % i, b"old%d" % i) for i in range(0, 90, 2)]
    store.sstables.insert(0, write_segment(str(tmp_path / "old.seg"), old))
    reference.update(old)
    # Middle layer -> plain SSTable shadowing some keys + a tombstone.
    mid = [(b"k%03d" % i, b"mid%d" % i) for i in range(0, 60, 3)]
    mid_entries = sorted(dict(mid).items()) + [(b"k999", TOMBSTONE)]
    mid_entries = sorted(mid_entries)
    store.sstables.insert(0, SSTable.from_entries(mid_entries))
    reference.update(mid)
    # Newest layer -> memtable: overwrite a segment key, delete another.
    store.memtable.put(b"k000", b"new0")
    reference[b"k000"] = b"new0"
    store.memtable.delete(b"k002")
    reference.pop(b"k002", None)
    expected = sorted(reference.items())
    assert list(store.scan()) == expected
    for key, value in expected:
        assert store.get(key) == value
    assert store.get(b"k002") is None
    assert store.get(b"k999") is None


# ----------------------------------------------------------------------
# Save/load through the engine
# ----------------------------------------------------------------------
def _answers(engine, probes, eps=0.03):
    return [
        sorted(engine.threshold_search(q, eps).answers.items())
        for q in probes
    ]


def test_compact_save_load_equivalence(tmp_path):
    trajs = tdrive_like(80, seed=3, decimals=5)
    config = TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=14, shards=4)
    engine = TraSS.build(trajs, config)
    probes = tdrive_like(5, seed=77, decimals=5)
    base = _answers(engine, probes)

    compact_dir = str(tmp_path / "compact")
    engine.save(compact_dir)

    loaded = TraSS.load(compact_dir)
    # Statistics restored without materialising a single block.
    assert loaded.store.trajectory_count == engine.store.trajectory_count
    assert loaded.store.value_histogram == engine.store.value_histogram
    segs = [
        run
        for region in loaded.store.table.regions
        for run in region.store.sstables
    ]
    assert segs and all(isinstance(run, Segment) for run in segs)
    assert sum(s.blocks_materialized for s in segs) == 0
    assert _answers(loaded, probes) == base
    # Queries materialised blocks and the IOMetrics counters saw them.
    snap = loaded.store.table.metrics.snapshot()
    assert snap["segment_blocks_materialized"] > 0
    assert snap["segment_bytes_logical"] > snap["segment_bytes_compressed"]


def test_compact_save_load_cached(tmp_path):
    """A re-tuned (cached) engine over a loaded compact store answers
    what the in-memory engine answers, cold and warm."""
    trajs = tdrive_like(80, seed=5, decimals=5)
    probes = tdrive_like(5, seed=88, decimals=5)
    base_engine = TraSS.build(
        trajs,
        TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=14, shards=4),
    )
    base = _answers(base_engine, probes)
    compact_dir = str(tmp_path / "compact")
    base_engine.save(compact_dir)

    loaded = TraSS.load(compact_dir)
    assert _answers(loaded, probes) == base
    loaded.configure_execution(cache_mb=8.0)
    assert _answers(loaded, probes) == base
    assert _answers(loaded, probes) == base
    assert loaded.metrics.block_cache_hits > 0


@pytest.mark.chaos
def test_compact_store_under_chaos(tmp_path):
    """Fault injection over a segment-backed store: same retries, same
    exact answers."""
    from repro.kvstore.faults import FaultInjector, FaultSchedule

    trajs = tdrive_like(60, seed=9, decimals=5)
    # Stored trajectories: every probe has answers, and only occupied
    # key ranges are scanned, so each scan start is a real fault site.
    probes = trajs[:12]
    config = TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=13, shards=4)
    engine = TraSS.build(trajs, config)
    base = _answers(engine, probes)
    assert all(base)
    compact_dir = str(tmp_path / "compact")
    engine.save(compact_dir)
    loaded = TraSS.load(compact_dir)
    loaded.install_fault_injector(
        FaultInjector(FaultSchedule(seed=17, region_unavailable_prob=0.5))
    )
    assert _answers(loaded, probes) == base
    assert loaded.metrics.snapshot()["retries"] > 0


def test_wal_tail_forces_stats_rescan(tmp_path):
    """A WAL beside the snapshot means the persisted statistics are
    stale: load must fall back to the scan rebuild."""
    from repro.kvstore.wal import WriteAheadLog

    trajs = tdrive_like(20, seed=13, decimals=5)
    engine = TraSS.build(
        trajs,
        TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=12, shards=2),
    )
    compact_dir = str(tmp_path / "compact")
    engine.save(compact_dir)
    # Plant a WAL tail (contents irrelevant — presence is the signal).
    with WriteAheadLog(os.path.join(compact_dir, "wal.log")):
        pass
    loaded = TraSS.load(compact_dir)
    assert loaded.store.trajectory_count == engine.store.trajectory_count


def test_segment_stats_and_registry(tmp_path):
    trajs = tdrive_like(60, seed=21, decimals=5)
    engine = TraSS.build(
        trajs,
        TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=13, shards=4),
    )
    compact_dir = str(tmp_path / "compact")
    engine.save(compact_dir)
    loaded = TraSS.load(compact_dir)
    # These queries match no stored index value: the occupied-value
    # check drops every planned range, so no block is decoded.
    for q in tdrive_like(3, seed=44, decimals=5):
        loaded.threshold_search(q, 0.03)
    assert loaded.metrics.segment_blocks_materialized == 0
    # A stored trajectory's own query reads rows, hence blocks.
    result = loaded.threshold_search(trajs[0], 0.03)
    assert trajs[0].tid in result.answers
    storage = loaded.stats()["storage"]
    segments = storage["segments"]
    assert segments["count"] >= 1
    assert segments["compression_ratio"] >= 3.0
    assert 0 < segments["blocks_materialized"] <= segments["blocks"]

    from repro.obs.registry import parse_prometheus

    samples = parse_prometheus(loaded.export_metrics("prometheus"))
    assert "trass_storage_segment_compression_ratio" in samples
    assert "trass_storage_segment_blocks_materialized" in samples


def test_selective_query_materialises_a_strict_subset(tmp_path):
    """Loading is lazy past the first query: one selective query on a
    store of several blocks per region decodes only the blocks its key
    ranges touch (small fixtures have too few blocks to show it)."""
    trajs = tdrive_like(400, seed=3, decimals=5)
    engine = TraSS.build(
        trajs,
        TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=14, shards=4),
    )
    directory = str(tmp_path / "store")
    engine.save(directory)
    loaded = TraSS.load(directory)
    assert loaded.stats()["storage"]["segments"]["blocks_materialized"] == 0
    result = loaded.threshold_search(trajs[0], 0.003)
    assert result.answers == engine.threshold_search(trajs[0], 0.003).answers
    segments = loaded.stats()["storage"]["segments"]
    assert 0 < segments["blocks_materialized"] < segments["blocks"]
