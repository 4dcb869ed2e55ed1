"""Tests for the WAL, table persistence, and engine save/load."""

import dataclasses
import gc
import json
import os
import shutil
import random
import weakref

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

    def test_durable_checkpoint_writes_only_segments(self, tmp_path):
        directory = str(tmp_path / "durable")
        with DurableKVTable(KVTable(max_region_rows=4), directory) as durable:
            for i in range(12):
                durable.put(b"k%02d" % i, b"v")
            durable.checkpoint()
        regions = [n for n in os.listdir(directory) if n.startswith("region-")]
        assert len(regions) == durable.table.num_regions > 1
        assert all(name.endswith(".seg") for name in regions)

    def test_plain_sstable_manifest_is_rejected(self, tmp_path):
        """Format versions 1 and 2 held plain ``.sst`` region files; they
        fail with a typed error naming the version, not a parse error."""
        directory = str(tmp_path / "tbl")
        save_table(KVTable(), directory)
        manifest_path = os.path.join(directory, "MANIFEST.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        for version in (1, 2):
            manifest["format_version"] = version
            with open(manifest_path, "w") as fh:
                json.dump(manifest, fh)
            with pytest.raises(KVStoreError) as caught:
                load_table(directory)
            assert f"table format {version}" in str(caught.value)
            assert ".sst snapshots" in str(caught.value)

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

    def test_dropped_load_is_freed_without_the_collector(self, tmp_path):
        """A loaded table's segments reach its metrics through a weak
        reference, so the table is no reference cycle: dropping the
        engine frees it at once, not at the next cyclic collection.  A
        segment that outlives its table still decodes its blocks."""
        data = tdrive_like(60, seed=33)
        cfg = TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=12, shards=2)
        TraSS.build(data, cfg).save(str(tmp_path / "store"))
        gc.disable()
        try:
            queried = TraSS.load(str(tmp_path / "store"))
            queried.threshold_search(data[0], 0.02)
            assert queried.metrics.segment_blocks_materialized > 0
            table = weakref.ref(queried.store.table)
            del queried
            assert table() is None

            idle = TraSS.load(str(tmp_path / "store"))
            segment = idle.store.table.regions[0].store.sstables[0]
            assert segment.blocks_materialized == 0
            table = weakref.ref(idle.store.table)
            del idle
            assert table() is None
        finally:
            gc.enable()
        assert sum(1 for _ in segment.scan()) > 0
        assert segment.blocks_materialized > 0

    def test_load_ignores_removed_config_keys(self, tmp_path):
        """A ``STORE.json`` written when since-removed knobs still
        existed loads, and answers and counts exactly like the snapshot
        without them — whatever values they hold."""
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
        removed = dict(
            scan_workers=4,
            vectorized_filter=True,
            retry_backoff_base=-1.0,
            retry_backoff_max=None,
            retry_jitter="x",
            breaker_failure_threshold=0,
            breaker_cooldown_seconds=[30],
            slow_query_log_size=0,
            slow_query_threshold_seconds=0.0,
            workload_log_size=-5,
            heatmap_buckets_per_shard=4,
            heat_decay_queries=float("nan"),
        )
        assert not set(removed) & set(meta["config"])
        meta["config"].update(removed)
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

    def test_every_config_field_survives_save_load(self, tmp_path):
        """Each field, set away from its default, comes back from
        ``STORE.json`` unchanged: the writer cannot forget a field."""
        changed = dict(
            max_resolution=11,
            bounds=SpaceBounds(115.0, 39.0, 118.0, 41.0),
            shards=3,
            dp_tolerance=0.004,
            measure_name="dtw",
            max_planned_elements=4096,
            range_merge_gap=2,
            max_region_rows=500,
            retry_max_attempts=6,
            scan_deadline_seconds=7.5,
            degraded_mode=True,
            cache_mb=1.5,
            plan_cache_size=7,
            storage_telemetry=False,
        )
        assert set(changed) == {
            f.name for f in dataclasses.fields(TraSSConfig)
        }
        default = TraSSConfig()
        for name, value in changed.items():
            assert getattr(default, name) != value, name
        cfg = TraSSConfig(**changed)
        directory = str(tmp_path / "store")
        TraSS.build(tdrive_like(10, seed=40), cfg).save(directory)
        assert TraSS.load(directory).config == cfg

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

    def test_load_of_legacy_box_modes(self, tmp_path):
        """``box_mode`` left the config with the min-area boxes: a
        snapshot carrying ``"chord"`` (every store saved before) loads
        and answers as one without the key, and a ``"min_area"`` one
        fails at load naming ``STORE.json`` and the mode."""
        data = tdrive_like(30, seed=36)
        cfg = TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=11, shards=2)
        plain_dir = str(tmp_path / "plain")
        TraSS.build(data, cfg).save(plain_dir)

        def with_box_mode(name, mode):
            directory = str(tmp_path / name)
            shutil.copytree(plain_dir, directory)
            meta_path = os.path.join(directory, "STORE.json")
            with open(meta_path) as fh:
                meta = json.load(fh)
            assert "box_mode" not in meta["config"]
            meta["config"]["box_mode"] = mode
            with open(meta_path, "w") as fh:
                json.dump(meta, fh)
            return directory

        def answers(directory):
            engine = TraSS.load(directory)
            return [
                sorted(engine.threshold_search(q, 0.02).answers.items())
                for q in data[:5]
            ]

        chord_dir = with_box_mode("chord", "chord")
        assert TraSS.load(chord_dir).config == cfg
        assert answers(chord_dir) == answers(plain_dir)
        with pytest.raises(KVStoreError) as caught:
            TraSS.load(with_box_mode("min_area", "min_area"))
        assert "STORE.json" in str(caught.value)
        assert "'min_area'" in str(caught.value)

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(KVStoreError):
            TraSS.load(str(tmp_path / "missing"))

    def test_save_rejects_plain_format(self, tmp_path):
        cfg = TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=10, shards=2)
        engine = TraSS.build(tdrive_like(5, seed=35), cfg)
        directory = tmp_path / "store"
        with pytest.raises(KVStoreError, match="compact segments"):
            engine.save(str(directory), compact=False)
        assert not directory.exists()

    @pytest.mark.parametrize("name", ["STORE.json", "TELEMETRY.json"])
    def test_torn_json_is_a_typed_error(self, tmp_path, name):
        """A half-written store metadata or telemetry file fails to load
        with a ``KVStoreError`` naming the file."""
        cfg = TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=10, shards=2)
        engine = TraSS.build(tdrive_like(10, seed=36), cfg)
        engine.threshold_search(tdrive_like(1, seed=37)[0], 0.01)
        directory = str(tmp_path / "store")
        engine.save(directory)
        path = os.path.join(directory, name)
        text = open(path).read()
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
        with pytest.raises(KVStoreError, match=f"corrupt {name}"):
            TraSS.load(directory)

    @pytest.mark.parametrize(
        "edit, missing",
        [
            (lambda meta: meta.pop("config"), "'config'"),
            (lambda meta: meta.pop("key_encoding"), "'key_encoding'"),
            (
                lambda meta: meta["config"].pop("max_resolution"),
                "'config.max_resolution'",
            ),
        ],
        ids=["config", "key_encoding", "max_resolution"],
    )
    def test_store_json_missing_key_is_a_typed_error(
        self, tmp_path, edit, missing
    ):
        """Valid JSON without a required key fails to load with a
        ``KVStoreError`` naming the file and the key, not a raw
        ``KeyError``."""
        cfg = TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=10, shards=2)
        directory = str(tmp_path / "store")
        TraSS.build(tdrive_like(10, seed=38), cfg).save(directory)
        meta_path = os.path.join(directory, "STORE.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        edit(meta)
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(KVStoreError) as caught:
            TraSS.load(directory)
        message = str(caught.value)
        assert "STORE.json" in message and missing in message

    @pytest.mark.parametrize(
        "key, value",
        [
            ("bounds", [115.8, 39.4]),
            ("bounds", [115.8, 39.4, "117.2", 40.6]),
            ("shards", "8"),
            ("cache_mb", None),
            ("degraded_mode", "yes"),
        ],
        ids=["bounds-two", "bounds-string", "shards-string", "cache-null",
             "degraded-string"],
    )
    def test_store_json_malformed_value_is_a_typed_error(
        self, tmp_path, key, value
    ):
        """A config value of the wrong JSON shape fails to load with a
        ``KVStoreError`` naming the file and the key — never a raw
        ``TypeError``, and never a silently defaulted field."""
        directory = self._store_with_config(tmp_path, key, value)
        with pytest.raises(KVStoreError) as caught:
            TraSS.load(directory)
        message = str(caught.value)
        assert "STORE.json" in message and f"'config.{key}'" in message

    @pytest.mark.parametrize(
        "key, value",
        [("max_resolution", 40), ("max_region_rows", 1), ("shards", 0)],
    )
    def test_store_json_out_of_bounds_is_the_config_error(
        self, tmp_path, key, value
    ):
        """A well-shaped config value out of bounds fails to load with
        the very ``QueryError`` ``TraSSConfig`` raises for it."""
        directory = self._store_with_config(tmp_path, key, value)
        with pytest.raises(QueryError) as expected:
            TraSSConfig(**{key: value})
        with pytest.raises(QueryError) as caught:
            TraSS.load(directory)
        assert str(caught.value) == str(expected.value)

    @staticmethod
    def _store_with_config(tmp_path, key, value):
        cfg = TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=10, shards=2)
        directory = str(tmp_path / "store")
        TraSS.build(tdrive_like(10, seed=41), cfg).save(directory)
        meta_path = os.path.join(directory, "STORE.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["config"][key] = value
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        return directory

    def test_store_json_not_an_object_is_a_typed_error(self, tmp_path):
        """A ``STORE.json`` holding a JSON list fails to load with a
        ``KVStoreError`` naming the file, not a raw ``TypeError``."""
        cfg = TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=10, shards=2)
        directory = str(tmp_path / "store")
        TraSS.build(tdrive_like(10, seed=39), cfg).save(directory)
        with open(os.path.join(directory, "STORE.json"), "w") as fh:
            json.dump([1, 2, 3], fh)
        with pytest.raises(
            KVStoreError, match="STORE.json .* not a JSON object"
        ):
            TraSS.load(directory)
