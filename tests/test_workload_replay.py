"""Workload capture, deterministic replay, telemetry persistence, and
the observability CLI surface (heatmap / doctor / replay / stats).

The replay contract: re-executing a captured workload produces
**byte-identical answer digests** — the digest round-trips floats
through ``repr``, so a single ULP of drift in any distance is a named
divergence, not a pass.
"""

import json
import random

import pytest

from repro import SpaceBounds, TraSS, TraSSConfig, Trajectory
from repro.cli import main as cli_main
from repro.obs.workload_log import (
    TELEMETRY_FILE,
    WorkloadEntry,
    WorkloadRecorder,
    answers_digest,
    load_observability,
    replay_workload,
    save_observability,
)

BOUNDS = SpaceBounds(0.0, 0.0, 10.0, 10.0)


def make_walk(tid, rng, n=6):
    x, y = rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5)
    points = [(x, y)]
    for _ in range(n - 1):
        x += rng.uniform(-0.05, 0.05)
        y += rng.uniform(-0.05, 0.05)
        points.append((x, y))
    return Trajectory(tid, points)


def small_config(**overrides):
    base = dict(
        max_resolution=8,
        bounds=BOUNDS,
        shards=4,
        dp_tolerance=0.005,
    )
    base.update(overrides)
    return TraSSConfig(**base)


def build_engine(n=120, seed=7, **overrides):
    rng = random.Random(seed)
    trajectories = [make_walk(f"t{i}", rng) for i in range(n)]
    return TraSS.build(trajectories, small_config(**overrides)), trajectories


def run_mixed_workload(engine, trajectories, count=12):
    for i, q in enumerate(trajectories[:count]):
        if i % 3 == 2:
            engine.topk_search(q, 5)
        else:
            engine.threshold_search(q, 0.08)


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
class TestRecorder:
    def test_queries_are_captured_with_io_and_digest(self):
        engine, trajectories = build_engine()
        run_mixed_workload(engine, trajectories, 9)
        recorder = engine.workload_recorder
        entries = recorder.entries()
        assert len(entries) == 9
        assert [e.seq for e in entries] == list(range(9))
        kinds = [e.kind for e in entries]
        assert kinds.count("topk") == 3 and kinds.count("threshold") == 6
        for e in entries:
            assert e.measure == "frechet"
            assert e.answers_digest and len(e.answers_digest) == 64
            assert e.points  # query geometry travels with the entry

    def test_ring_buffer_keeps_newest(self):
        engine, trajectories = build_engine()
        engine._workload_recorder = WorkloadRecorder(capacity=5)
        run_mixed_workload(engine, trajectories, 12)
        entries = engine.workload_recorder.entries()
        assert len(entries) == 5
        assert [e.seq for e in entries] == list(range(7, 12))

    def test_paused_suspends_and_restores(self):
        recorder = WorkloadRecorder(capacity=4)
        assert recorder.enabled
        with recorder.paused():
            assert not recorder.enabled
        assert recorder.enabled

    def test_json_round_trip(self):
        engine, trajectories = build_engine()
        run_mixed_workload(engine, trajectories, 6)
        recorder = engine.workload_recorder
        payload = json.loads(json.dumps(recorder.to_json()))
        other = WorkloadRecorder(capacity=recorder.capacity)
        other.restore_from_json(payload)
        assert [e.to_json() for e in other.entries()] == [
            e.to_json() for e in recorder.entries()
        ]

    def test_digest_sensitive_to_membership_and_order(self):
        class _Threshold:
            def __init__(self, answers):
                self.answers = answers

        class _TopK:
            def __init__(self, answers):
                self.answers = answers

        a = answers_digest("threshold", _Threshold({"a": 0.1, "b": 0.2}))
        # dict ordering is canonicalised away...
        b = answers_digest("threshold", _Threshold({"b": 0.2, "a": 0.1}))
        assert a == b
        # ...but membership and distance changes are not
        assert a != answers_digest("threshold", _Threshold({"a": 0.1}))
        assert a != answers_digest(
            "threshold", _Threshold({"a": 0.1 + 1e-15, "b": 0.2})
        )
        # top-k ranking order matters
        k1 = answers_digest("topk", _TopK([(0.1, "a"), (0.2, "b")]))
        k2 = answers_digest("topk", _TopK([(0.2, "b"), (0.1, "a")]))
        assert k1 != k2


# ----------------------------------------------------------------------
# Replay determinism
# ----------------------------------------------------------------------
class TestReplay:
    def test_replay_is_byte_identical(self):
        engine, trajectories = build_engine()
        run_mixed_workload(engine, trajectories, 12)
        before = len(engine.workload_recorder)
        report = engine.replay()
        assert report.total == 12
        assert report.ok, report.render()
        for outcome in report.outcomes:
            assert outcome.digest == outcome.entry.answers_digest
            assert outcome.answers == outcome.entry.answers
        # Replaying did not append to the log it replayed from.
        assert len(engine.workload_recorder) == before

    def test_replay_survives_save_load(self, tmp_path):
        engine, trajectories = build_engine()
        run_mixed_workload(engine, trajectories, 8)
        engine.save(str(tmp_path))
        loaded = TraSS.load(str(tmp_path))
        assert len(loaded.workload_recorder) == 8
        report = loaded.replay()
        assert report.total == 8
        assert report.ok, report.render()

    def test_replay_detects_divergence(self):
        engine, trajectories = build_engine()
        for q in trajectories[:4]:
            engine.threshold_search(q, 0.08)
        entries = engine.workload_recorder.entries()
        # Corrupt one recorded digest: the report must name exactly it.
        entries[2].answers_digest = "0" * 64
        report = replay_workload(engine, entries)
        assert not report.ok
        assert [o.entry.seq for o in report.mismatches] == [2]
        rendered = report.render()
        assert "DIVERGED seq=2" in rendered
        payload = report.to_json()
        assert payload["mismatched"] == 1 and payload["ok"] is False

    def test_replay_on_rebuilt_engine_matches_recording(self):
        engine, trajectories = build_engine()
        run_mixed_workload(engine, trajectories, 8)
        entries = engine.workload_recorder.entries()
        rebuilt = TraSS.build(trajectories, small_config())
        report = replay_workload(rebuilt, entries)
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# Persistence (TELEMETRY.json)
# ----------------------------------------------------------------------
class TestTelemetryPersistence:
    def test_save_load_round_trips_heat_and_workload(self, tmp_path):
        engine, trajectories = build_engine()
        run_mixed_workload(engine, trajectories, 10)
        heat = list(engine.heatmap.heat)
        rows = list(engine.heatmap.rows)
        engine.save(str(tmp_path))
        assert (tmp_path / TELEMETRY_FILE).exists()
        loaded = TraSS.load(str(tmp_path))
        restored = loaded.heatmap
        assert restored.rows == rows
        for a, b in zip(restored.heat, heat):
            assert a == pytest.approx(b)
        assert len(loaded.workload_recorder) == 10

    def test_slow_query_log_in_old_file_is_ignored(self, tmp_path):
        """A ``TELEMETRY.json`` written while the slow-query log existed
        still loads: its heat and workload restore and replay, and the
        ``slow_queries`` key is ignored."""
        engine, trajectories = build_engine()
        run_mixed_workload(engine, trajectories, 6)
        engine.save(str(tmp_path))
        path = tmp_path / TELEMETRY_FILE
        payload = json.loads(path.read_text())
        assert "slow_queries" not in payload
        payload["slow_queries"] = [
            {
                "kind": "threshold",
                "query_tid": trajectories[0].tid,
                "parameter": 0.08,
                "seconds": 0.25,
                "candidates": 3,
                "answers": 1,
                "completeness": 1.0,
                "timestamp": 1.0,
                "origin": "cluster",
                "fanout": [{"partition": 0, "replica": 0}],
            }
        ]
        path.write_text(json.dumps(payload))
        loaded = TraSS.load(str(tmp_path))
        assert len(loaded.workload_recorder) == 6
        assert loaded.heatmap.total_rows == engine.heatmap.total_rows
        assert loaded.replay().ok
        loaded.save(str(tmp_path / "again"))
        resaved = json.loads((tmp_path / "again" / TELEMETRY_FILE).read_text())
        assert "slow_queries" not in resaved

    def test_io_delta_in_old_file_is_ignored(self, tmp_path, capsys):
        """A ``TELEMETRY.json`` whose entries still carry the per-query
        ``io_delta`` and ``generation`` loads, replays from the CLI, and
        is re-saved without them."""
        engine, trajectories = build_engine()
        run_mixed_workload(engine, trajectories, 6)
        engine.save(str(tmp_path))
        path = tmp_path / TELEMETRY_FILE
        payload = json.loads(path.read_text())
        for raw in payload["workload"]["entries"]:
            assert "io_delta" not in raw and "generation" not in raw
            raw["io_delta"] = {"rows_scanned": 7, "rows_returned": 2}
            raw["generation"] = 3
        path.write_text(json.dumps(payload))
        loaded = TraSS.load(str(tmp_path))
        assert len(loaded.workload_recorder) == 6
        assert cli_main(["replay", "--store", str(tmp_path)]) == 0
        assert "6 matched, 0 diverged" in capsys.readouterr().out
        loaded.save(str(tmp_path / "again"))
        resaved = json.loads((tmp_path / "again" / TELEMETRY_FILE).read_text())
        for raw in resaved["workload"]["entries"]:
            assert "io_delta" not in raw and "generation" not in raw

    def test_missing_telemetry_file_degrades_gracefully(self, tmp_path):
        engine, trajectories = build_engine()
        run_mixed_workload(engine, trajectories, 4)
        engine.save(str(tmp_path))
        (tmp_path / TELEMETRY_FILE).unlink()
        loaded = TraSS.load(str(tmp_path))  # no error
        assert loaded.heatmap.total_rows == 0
        assert len(loaded.workload_recorder) == 0
        # And queries still work and record afresh.
        loaded.threshold_search(trajectories[0], 0.08)
        assert len(loaded.workload_recorder) == 1

    def test_grid_mismatch_keeps_fresh_state(self, tmp_path):
        engine, trajectories = build_engine()
        run_mixed_workload(engine, trajectories, 4)
        save_observability(engine, str(tmp_path))
        # A store with a different shard count has a different heatmap
        # grid, so it cannot adopt the persisted one — it keeps its
        # empty state instead of guessing.
        other, _ = build_engine(n=40, shards=2)
        assert load_observability(other, str(tmp_path))  # workload restores
        assert other.heatmap.total_rows == 0
        assert len(other.workload_recorder) == 4

    def test_disabled_telemetry_saves_nothing(self, tmp_path):
        engine, trajectories = build_engine(storage_telemetry=False)
        for q in trajectories[:3]:
            engine.threshold_search(q, 0.08)
        engine.save(str(tmp_path))
        assert not (tmp_path / TELEMETRY_FILE).exists()
        loaded = TraSS.load(str(tmp_path))
        assert loaded.heatmap is None
        assert loaded.workload_recorder is None


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestObservabilityCLI:
    @pytest.fixture()
    def store_dir(self, tmp_path):
        engine, trajectories = build_engine(n=80)
        run_mixed_workload(engine, trajectories, 8)
        engine.save(str(tmp_path / "store"))
        return str(tmp_path / "store")

    def test_heatmap_json(self, store_dir, capsys):
        rc = cli_main(["heatmap", "--store", store_dir, "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_rows"] > 0
        assert payload["regions"] and payload["buckets"]

    def test_heatmap_ascii(self, store_dir, capsys):
        rc = cli_main(["heatmap", "--store", store_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "key-space heatmap" in out
        assert "shard   0" in out

    def test_doctor_json(self, store_dir, capsys):
        rc = cli_main(["doctor", "--store", store_dir, "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "recommendations" in payload
        for rec in payload["recommendations"]:
            assert rec["kind"] and rec["evidence"]

    def test_replay_matches(self, store_dir, capsys):
        rc = cli_main(["replay", "--store", store_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replayed 8 queries" in out
        assert "8 matched, 0 diverged" in out

    def test_replay_empty_log_fails(self, tmp_path, capsys):
        engine, _ = build_engine(n=20)
        engine.save(str(tmp_path / "empty"))
        rc = cli_main(["replay", "--store", str(tmp_path / "empty")])
        assert rc == 1

    def test_heatmap_requires_telemetry(self, tmp_path, capsys):
        engine, _ = build_engine(n=20, storage_telemetry=False)
        engine.save(str(tmp_path / "off"))
        rc = cli_main(["heatmap", "--store", str(tmp_path / "off")])
        assert rc == 1

    def test_stats_json_includes_storage(self, store_dir, capsys):
        rc = cli_main(["stats", "--store", store_dir, "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        storage = payload["storage"]
        assert storage["regions"]["count"] >= 1
        assert "bloom" in storage and "wal" in storage
