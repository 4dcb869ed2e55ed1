"""Tests for the WAL, table persistence, and engine save/load."""

import json
import os
import shutil
import random

import pytest

from repro import TraSS, TraSSConfig, SpaceBounds
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like
from repro.exceptions import KVStoreError, QueryError
from repro.kvstore.persistence import DurableKVTable, load_table, save_table
from repro.kvstore.table import KVTable
from repro.kvstore.wal import OP_DELETE, OP_PUT, WriteAheadLog


class TestWriteAheadLog:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append_put(b"a", b"1")
            wal.append_delete(b"b")
            wal.append_put(b"c", b"333")
            wal.flush()
        assert WriteAheadLog.replay(path) == [
            (OP_PUT, b"a", b"1"),
            (OP_DELETE, b"b", b""),
            (OP_PUT, b"c", b"333"),
        ]

    def test_replay_missing_file_is_empty(self, tmp_path):
        assert WriteAheadLog.replay(str(tmp_path / "nope.log")) == []

    def test_torn_tail_stops_cleanly(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append_put(b"a", b"1")
            wal.append_put(b"b", b"2")
            wal.flush()
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-5])  # tear the final record
        records = WriteAheadLog.replay(path)
        assert records == [(OP_PUT, b"a", b"1")]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append_put(b"aaaa", b"1111")
            wal.append_put(b"bbbb", b"2222")
            wal.flush()
        data = bytearray(open(path, "rb").read())
        data[10] ^= 0xFF  # corrupt the first record's body
        open(path, "wb").write(bytes(data))
        with pytest.raises(KVStoreError):
            WriteAheadLog.replay(path)

    def test_truncate(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_put(b"a", b"1")
        wal.truncate()
        wal.append_put(b"b", b"2")
        wal.flush()
        wal.close()
        assert WriteAheadLog.replay(path) == [(OP_PUT, b"b", b"2")]

    def test_close_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.append_put(b"a", b"1")
        wal.close()
        assert wal.closed
        wal.close()  # second close is a no-op, not an error
        wal.flush()  # flush on a closed log is a safe no-op too
        assert wal.closed

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.close()
        with pytest.raises(KVStoreError):
            wal.append_put(b"a", b"1")

    def test_context_manager_closes_and_flushes(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, sync=True) as wal:
            wal.append_put(b"a", b"1")
            assert not wal.closed
        assert wal.closed
        assert WriteAheadLog.replay(path) == [(OP_PUT, b"a", b"1")]

    def test_truncate_reopens_closed_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_put(b"a", b"1")
        wal.close()
        wal.truncate()  # checkpoint path: reusable after close
        assert not wal.closed
        wal.append_put(b"b", b"2")
        wal.close()
        assert WriteAheadLog.replay(path) == [(OP_PUT, b"b", b"2")]

    def test_durable_table_context_manager(self, tmp_path):
        directory = str(tmp_path / "durable")
        with DurableKVTable(KVTable(), directory) as durable:
            durable.put(b"a", b"1")
        assert durable.wal.closed
        durable.close()  # idempotent through the wrapper as well
        assert dict(load_table(directory).full_scan()) == {b"a": b"1"}

    def test_load_wal_only_directory(self, tmp_path):
        """A store that died before its first checkpoint (WAL, no
        manifest) must still recover."""
        directory = str(tmp_path / "durable")
        durable = DurableKVTable(KVTable(), directory, sync=True)
        durable.put(b"a", b"1")
        durable.put(b"b", b"2")
        durable.delete(b"a")
        # No checkpoint, no close: recover from the log alone.
        assert dict(load_table(directory).full_scan()) == {b"b": b"2"}

    def test_load_empty_directory_raises(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        with pytest.raises(KVStoreError):
            load_table(str(d))


class TestTablePersistence:
    def test_roundtrip(self, tmp_path):
        table = KVTable(max_region_rows=20)
        rng = random.Random(1)
        model = {}
        for i in range(100):
            key = f"key{rng.randrange(1000):04d}".encode()
            value = str(i).encode()
            table.put(key, value)
            model[key] = value
        save_table(table, str(tmp_path / "tbl"))
        restored = load_table(str(tmp_path / "tbl"))
        assert dict(restored.full_scan()) == model
        assert restored.num_regions == table.num_regions

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(KVStoreError):
            load_table(str(tmp_path))

    def test_corrupt_manifest(self, tmp_path):
        d = tmp_path / "tbl"
        d.mkdir()
        (d / "MANIFEST.json").write_text("{not json")
        with pytest.raises(KVStoreError):
            load_table(str(d))

    def test_durable_table_recovers_from_wal(self, tmp_path):
        directory = str(tmp_path / "durable")
        durable = DurableKVTable(KVTable(), directory)
        durable.put(b"a", b"1")
        durable.checkpoint()  # snapshot holds {a}
        durable.put(b"b", b"2")  # only in the WAL
        durable.delete(b"a")  # only in the WAL
        durable.close()
        # "Crash" and restart: snapshot + WAL replay.
        restored = load_table(directory)
        assert dict(restored.full_scan()) == {b"b": b"2"}

    def test_durable_checkpoint_truncates_wal(self, tmp_path):
        directory = str(tmp_path / "durable")
        durable = DurableKVTable(KVTable(), directory)
        durable.put(b"a", b"1")
        durable.checkpoint()
        durable.close()
        assert WriteAheadLog.replay(os.path.join(directory, "wal.log")) == []
        restored = load_table(directory)
        assert dict(restored.full_scan()) == {b"a": b"1"}


class TestEngineSaveLoad:
    def test_engine_roundtrip(self, tmp_path):
        data = tdrive_like(80, seed=31)
        cfg = TraSSConfig(
            bounds=TDRIVE_BOUNDS, max_resolution=12, dp_tolerance=0.005, shards=3
        )
        engine = TraSS.build(data, cfg)
        q = data[5]
        before = engine.threshold_search(q, 0.02)

        engine.save(str(tmp_path / "store"))
        restored = TraSS.load(str(tmp_path / "store"))

        assert len(restored) == len(engine)
        assert restored.config.max_resolution == 12
        assert restored.config.shards == 3
        after = restored.threshold_search(q, 0.02)
        assert set(after.answers) == set(before.answers)
        # Statistics rebuilt.
        assert restored.store.value_histogram == engine.store.value_histogram

    def test_engine_roundtrip_topk(self, tmp_path):
        data = tdrive_like(60, seed=32)
        cfg = TraSSConfig(
            bounds=TDRIVE_BOUNDS, max_resolution=12, dp_tolerance=0.005, shards=2
        )
        engine = TraSS.build(data, cfg)
        engine.save(str(tmp_path / "store"))
        restored = TraSS.load(str(tmp_path / "store"))
        q = data[0]
        a = [tid for _, tid in engine.topk_search(q, 5).answers]
        b = [tid for _, tid in restored.topk_search(q, 5).answers]
        assert a == b

    def test_load_ignores_removed_config_keys(self, tmp_path):
        """A ``STORE.json`` written when ``scan_workers`` and
        ``vectorized_filter`` still existed loads, and answers and
        counts exactly like the snapshot without them."""
        data = tdrive_like(80, seed=33)
        cfg = TraSSConfig(
            bounds=TDRIVE_BOUNDS, max_resolution=12, dp_tolerance=0.005, shards=3
        )
        plain_dir = str(tmp_path / "plain")
        old_dir = str(tmp_path / "old")
        TraSS.build(data, cfg).save(plain_dir)
        shutil.copytree(plain_dir, old_dir)
        meta_path = os.path.join(old_dir, "STORE.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        assert "scan_workers" not in meta["config"]
        assert "vectorized_filter" not in meta["config"]
        meta["config"].update(scan_workers=4, vectorized_filter=True)
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)

        def observe(directory):
            engine = TraSS.load(directory)
            before = engine.metrics.snapshot()
            answers = [
                (
                    sorted(engine.threshold_search(q, 0.02).answers.items()),
                    engine.topk_search(q, 5).answers,
                )
                for q in data[:6]
            ]
            return answers, engine.metrics.diff(before)

        assert observe(old_dir) == observe(plain_dir)

    def test_load_rejects_removed_measure(self, tmp_path):
        """A ``STORE.json`` whose config names a measure the engine no
        longer serves (EDR, ERP and LCSS lack the Lemma 5 bound) fails
        to load with a typed error naming the measures it does serve."""
        cfg = TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=10, shards=2)
        directory = str(tmp_path / "store")
        TraSS.build(tdrive_like(10, seed=34), cfg).save(directory)
        meta_path = os.path.join(directory, "STORE.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["config"]["measure_name"] = "edr"
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(QueryError) as caught:
            TraSS.load(directory)
        assert "available: ['dtw', 'frechet', 'hausdorff']" in str(
            caught.value
        )

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(KVStoreError):
            TraSS.load(str(tmp_path / "missing"))
