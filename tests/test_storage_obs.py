"""Storage-engine telemetry: LSM/SSTable/WAL counters, the key-space
heatmap and its per-region views, the advisor and the registry surface.

The invariants pinned here (DESIGN.md §9):

* telemetry off → **byte-identical answers and IOMetrics totals** (the
  telemetry layer never writes into the I/O accounting);
* telemetry is a deterministic function of (data, workload);
* heat is keyed by the fixed key space, so region splits and
  compactions can neither double-count nor orphan it — region
  attribution always sums to the total;
* the advisor's recommendations cite the metric values that triggered
  them.
"""

import json
import random

import pytest

from repro import SpaceBounds, TraSS, TraSSConfig, Trajectory
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like
from repro.kvstore.lsm import LSMStore
from repro.kvstore.metrics import SEEK_DEPTH_BUCKETS
from repro.kvstore.rowkey import shard_of
from repro.kvstore.sstable import SSTable
from repro.kvstore.table import ScanRange
from repro.kvstore.wal import WriteAheadLog
from repro.obs.advisor import (
    HOT_REGION_SHARE,
    RESOLUTION_SATURATION,
    SALT_SKEW_RATIO,
    diagnose,
    report_json,
)
from repro.obs.heatmap import (
    KeySpaceHeatmap,
    heatmap_json,
    key_space_boundaries,
    render_heatmap,
)
from repro.obs.registry import Histogram, parse_prometheus

BOUNDS = SpaceBounds(0.0, 0.0, 10.0, 10.0)


def make_walk(tid, rng, cx=None, cy=None, n=6, spread=0.01):
    x = cx if cx is not None else rng.uniform(0.5, 9.5)
    y = cy if cy is not None else rng.uniform(0.5, 9.5)
    points = [(x, y)]
    for _ in range(n - 1):
        x += rng.uniform(-spread, spread)
        y += rng.uniform(-spread, spread)
        points.append((x, y))
    return Trajectory(tid, points)


def small_config(**overrides):
    base = dict(
        max_resolution=8,
        bounds=BOUNDS,
        shards=4,
        dp_tolerance=0.005,
        max_region_rows=40,
    )
    base.update(overrides)
    return TraSSConfig(**base)


def build_engine(n=150, seed=3, **overrides):
    rng = random.Random(seed)
    trajectories = [make_walk(f"t{i}", rng) for i in range(n)]
    return TraSS.build(trajectories, small_config(**overrides)), trajectories


# ----------------------------------------------------------------------
# LSM / SSTable / WAL counters
# ----------------------------------------------------------------------
class TestStorageCounters:
    def test_fixed_bucket_counts(self):
        hist = Histogram("t.a", buckets=(1, 2, 4))
        for v in (1, 1, 2, 3, 9):
            hist.observe(v)
        assert hist.count == 5
        assert hist.sum == 16
        assert hist.counts == [2, 1, 1, 1]
        other = Histogram("t.b", buckets=(1, 2, 4))
        other.observe(2)
        hist.merge_from(other)
        assert hist.count == 6 and hist.counts[1] == 2
        with pytest.raises(ValueError):
            hist.merge_from(Histogram("t.c", buckets=(1, 2)))
        hist.reset()
        assert (hist.counts, hist.sum, hist.count) == ([0, 0, 0, 0], 0.0, 0)

    def test_seek_depth_tracks_structures_consulted(self):
        store = LSMStore(flush_threshold=10**9)
        store.put(b"a", b"1")
        store.flush()
        store.put(b"b", b"2")
        store.flush()
        # 'b' is in the newest run: memtable (1) + first table (2).
        assert store.get(b"b") == b"2"
        # 'a' is one run deeper: depth 3.
        assert store.get(b"a") == b"1"
        # miss consults everything: depth 3.
        assert store.get(b"zz") is None
        assert store.gets == 3
        assert store.seek_depth_total == 2 + 3 + 3
        assert store.seek_depth_hist.count == 3

    def test_flush_and_compaction_byte_accounting(self):
        store = LSMStore(flush_threshold=10**9, compaction_trigger=2)
        store.put(b"a", b"x" * 50)
        store.flush()
        assert store.flush_count == 1
        assert store.flush_bytes > 50
        assert store.flush_duration_hist.count == 1
        store.put(b"b", b"y" * 50)
        store.flush()  # second run trips the trigger
        assert store.compaction_count == 1
        assert store.compaction_bytes > 100
        assert store.compaction_duration_hist.count == 1

    def test_sstable_bloom_counters(self):
        run = SSTable.from_entries([(b"k%03d" % i, b"v") for i in range(50)])
        assert run.get(b"k001") == b"v"
        misses = 0
        for i in range(200, 400):
            if run.get(b"m%03d" % i) is None:
                misses += 1
        assert misses == 200
        assert run.reads == 201
        # Every miss was either bloom-filtered or a false positive.
        assert run.bloom_negatives + run.bloom_false_positives == 200
        assert run.bloom_negatives > 0

    def test_wal_append_and_fsync_counters(self, tmp_path):
        before = dict(WriteAheadLog.totals)
        with WriteAheadLog(str(tmp_path / "wal"), sync=True) as wal:
            wal.append_put(b"k", b"v")
            wal.append_delete(b"k")
            assert wal.appends == 2
            assert wal.fsyncs == 2  # sync=True fsyncs per append
            assert wal.bytes_appended > 0
        assert WriteAheadLog.totals["appends"] == before["appends"] + 2
        assert WriteAheadLog.totals["fsyncs"] >= before["fsyncs"] + 2


# ----------------------------------------------------------------------
# Telemetry parity and equivalence
# ----------------------------------------------------------------------
class TestTelemetryParity:
    def test_telemetry_off_identical_answers_and_io(self):
        rng = random.Random(11)
        trajectories = [make_walk(f"t{i}", rng) for i in range(120)]
        queries = trajectories[:15]
        answers = {}
        snapshots = {}
        for enabled in (True, False):
            engine = TraSS.build(
                trajectories, small_config(storage_telemetry=enabled)
            )
            got = []
            for q in queries:
                t = engine.threshold_search(q, 0.05)
                k = engine.topk_search(q, 5)
                got.append((sorted(t.answers.items()), k.answers))
            answers[enabled] = got
            snapshots[enabled] = engine.metrics.snapshot()
        assert answers[True] == answers[False]
        assert snapshots[True] == snapshots[False]
        # And the disabled engine really has no telemetry attached.
        engine = TraSS.build(
            trajectories[:5], small_config(storage_telemetry=False)
        )
        assert engine.heatmap is None
        assert engine.workload_recorder is None

    def test_telemetry_is_deterministic(self):
        rng = random.Random(5)
        trajectories = [make_walk(f"t{i}", rng) for i in range(150)]
        queries = trajectories[:10]

        def run():
            engine = TraSS.build(trajectories, small_config())
            for q in queries:
                engine.threshold_search(q, 0.05)
            heatmap = engine.heatmap
            regions = heatmap.region_sums(engine.store.table, heatmap.rows)
            return (
                heatmap.heat,
                heatmap.rows,
                [(region.start_key, rows) for region, rows in regions],
            )

        assert run() == run()


# ----------------------------------------------------------------------
# Heatmap: decay, attribution, generation safety
# ----------------------------------------------------------------------
class TestHeatmap:
    def test_boundaries_cover_all_shards(self):
        engine, _ = build_engine(n=20)
        boundaries = key_space_boundaries(engine.store, 8)
        shards = {b[0] for b in boundaries}
        assert shards == set(range(4))

    def test_record_and_decay(self):
        heatmap = KeySpaceHeatmap([b"\x01", b"\x02"], half_life=1.0)
        heatmap.record(b"\x00")
        heatmap.record(b"\x01")
        heatmap.record(b"\x03")
        assert heatmap.rows == [1, 1, 1]
        assert heatmap.total_heat == pytest.approx(3.0)
        heatmap.advance_tick()
        # half-life 1 → one tick halves the heat; lifetime rows persist.
        assert heatmap.total_heat == pytest.approx(1.5)
        assert heatmap.total_rows == 3

    def test_split_conserves_heat_no_double_count_no_orphan(self):
        """The generation-safety regression: split a hot region
        mid-workload and the region attribution still sums exactly to
        the recorded heat — nothing duplicated onto the daughters,
        nothing stranded on the retired parent."""
        engine, trajectories = build_engine(
            n=39, max_region_rows=100_000  # one region, no auto-split yet
        )
        for q in trajectories[:12]:
            engine.threshold_search(q, 0.05)
        heatmap = engine.heatmap
        total_before = heatmap.total_heat
        table = engine.store.table
        assert table.num_regions == 1
        attributed = sum(h for _, h in heatmap.region_heat(table))
        assert attributed == pytest.approx(total_before)

        # Force the hot region to split mid-workload.
        table.max_region_rows = 10
        engine.add(make_walk("fresh", random.Random(99)))
        assert table.num_regions >= 2

        # Same heat, now distributed over the daughters: conserved.
        attributed = sum(h for _, h in heatmap.region_heat(table))
        assert attributed == pytest.approx(heatmap.total_heat)
        # More queries keep recording into the same fixed buckets.
        engine.threshold_search(trajectories[0], 0.05)
        attributed = sum(h for _, h in heatmap.region_heat(table))
        assert attributed == pytest.approx(heatmap.total_heat)

    def test_compaction_does_not_touch_heat(self):
        engine, trajectories = build_engine(n=60)
        for q in trajectories[:8]:
            engine.threshold_search(q, 0.05)
        heat_before = list(engine.heatmap.heat)
        engine.store.table.flush_all()
        engine.store.table.compact_all()
        assert engine.heatmap.heat == heat_before

    def test_render_and_json(self):
        engine, trajectories = build_engine(n=80)
        for q in trajectories[:10]:
            engine.threshold_search(q, 0.05)
        heatmap = engine.heatmap
        text = render_heatmap(heatmap, engine.store.table, 4)
        assert "key-space heatmap" in text
        assert "shard   0" in text
        payload = heatmap_json(heatmap, engine.store.table)
        json.dumps(payload)  # serialisable
        assert payload["total_rows"] == heatmap.total_rows
        assert sum(r["heat"] for r in payload["regions"]) == pytest.approx(
            payload["total_heat"]
        )

    def test_restore_rejects_mismatched_grid(self):
        a = KeySpaceHeatmap([b"\x01"])
        b = KeySpaceHeatmap([b"\x02"])
        b.record(b"\x00")
        assert a.restore_from(b) is False
        assert a.total_heat == 0.0
        c = KeySpaceHeatmap([b"\x02"])
        assert c.restore_from(b) is True
        assert c.total_rows == 1


# ----------------------------------------------------------------------
# Advisor
# ----------------------------------------------------------------------
class TestAdvisor:
    def test_skewed_workload_triggers_hot_region_and_salt_skew(self):
        """The ISSUE acceptance scenario: a seeded skewed workload makes
        the doctor emit hot-region-split AND salt-skew, each citing the
        triggering metric values."""
        rng = random.Random(21)
        # A small hot cluster whose tids all hash into shard 0 (so its
        # keys are contiguous and fit inside one region), plus a uniform
        # cold background spread over every shard.
        hot, cold, i = [], [], 0
        while len(hot) < 30 or len(cold) < 90:
            tid = f"t{i}"
            i += 1
            if shard_of(tid, 4) == 0 and len(hot) < 30:
                hot.append(
                    make_walk(tid, rng, cx=1.0 + rng.uniform(0, 0.2),
                              cy=1.0 + rng.uniform(0, 0.2))
                )
            elif len(cold) < 90:
                cold.append(make_walk(tid, rng))
        engine = TraSS.build(hot + cold, small_config(max_region_rows=30))
        for _ in range(2):
            for q in hot:
                engine.threshold_search(q, 0.1)
        recs = diagnose(engine)
        kinds = {r.kind for r in recs}
        assert "hot-region-split" in kinds
        assert "salt-skew" in kinds
        by_kind = {r.kind: r for r in recs}
        hot_rec = by_kind["hot-region-split"]
        assert hot_rec.evidence["heat_share"] >= HOT_REGION_SHARE
        assert hot_rec.evidence["region_rows"] >= 2
        assert "heat_share" in hot_rec.rationale or "share" in hot_rec.rationale
        skew = by_kind["salt-skew"]
        assert skew.evidence["skew_ratio"] >= SALT_SKEW_RATIO
        assert skew.evidence["hottest_shard"] == 0
        # Short walks in a 256-cell grid all index at MaxR = 8.
        saturated = by_kind["resolution-mismatch"]
        assert saturated.evidence["saturated_mass"] >= RESOLUTION_SATURATION
        assert saturated.evidence["max_resolution"] == 8
        payload = report_json(recs)
        json.dumps(payload)
        assert payload["findings"] == len(recs)

    def test_uniform_workload_no_hot_region(self):
        engine, trajectories = build_engine(n=150, seed=13)
        for q in trajectories[::7]:
            engine.threshold_search(q, 0.02)
        kinds = {r.kind for r in diagnose(engine)}
        assert "hot-region-split" not in kinds

    def test_cache_recommendation_fires_when_disabled(self):
        engine, trajectories = build_engine(n=120)
        # A wide radius defeats pruning, so every query rescans most of
        # the store — the workload a block/record cache exists for.
        for _ in range(2):
            for q in trajectories[:20]:
                engine.threshold_search(q, 3.0)
        io = engine.metrics.snapshot()
        assert io["rows_scanned"] >= 1000
        recs = [r for r in diagnose(engine) if r.kind == "cache-tuning"]
        assert recs, "cache-tuning should fire with cache_mb=0 and heavy scans"
        assert recs[0].evidence["rows_scanned"] == io["rows_scanned"]

    def test_hot_region_split_names_an_open_end_plus_inf(self):
        """A scan-hot last region ends at an open key: its span reads
        ``+inf``, not ``-inf``."""
        engine = TraSS.build(
            tdrive_like(200, seed=3),
            TraSSConfig(bounds=TDRIVE_BOUNDS, shards=4, max_region_rows=30),
        )
        table = engine.store.table
        last = table.regions[-1]
        assert table.num_regions > 1 and last.end_key is None
        for _ in range(200):
            for _ in table.scan(last.start_key, None):
                pass
        (hot,) = [r for r in diagnose(engine) if r.kind == "hot-region-split"]
        assert hot.evidence["region"].endswith(" .. +inf)")
        assert "+inf)" in hot.title and "-inf" not in hot.title

    def test_telemetry_disabled_still_diagnoses(self):
        engine, trajectories = build_engine(storage_telemetry=False)
        for q in trajectories[:5]:
            engine.threshold_search(q, 0.05)
        recs = diagnose(engine)  # heat heuristics skip, others still run
        assert all(
            r.kind not in ("hot-region-split", "salt-skew") for r in recs
        )


# ----------------------------------------------------------------------
# Registry / stats / EXPLAIN surfaces
# ----------------------------------------------------------------------
class TestStorageSurfaces:
    def test_registry_exports_storage_metrics(self):
        engine, trajectories = build_engine()
        for q in trajectories[:10]:
            engine.threshold_search(q, 0.05)
        prom = engine.export_metrics("prometheus")
        samples = parse_prometheus(prom)
        assert "trass_storage_seek_depth_count" in samples
        assert "trass_storage_flush_count" in samples
        assert "trass_storage_wal_appends" in samples
        assert "trass_storage_read_amplification" in samples
        assert any(
            name.startswith("trass_storage_seek_depth_bucket")
            for name in samples
        )
        # Refreshing twice must not double-count the histograms.
        first = parse_prometheus(engine.export_metrics("prometheus"))[
            "trass_storage_seek_depth_count"
        ]
        second = parse_prometheus(engine.export_metrics("prometheus"))[
            "trass_storage_seek_depth_count"
        ]
        assert first == second

    def test_stats_storage_section(self):
        engine, trajectories = build_engine()
        for q in trajectories[:5]:
            engine.threshold_search(q, 0.05)
        storage = engine.stats()["storage"]
        assert storage["regions"]["count"] == engine.store.table.num_regions
        assert storage["sstables"]["runs_per_region"]
        assert 0.0 <= storage["bloom"]["false_positive_rate"] <= 1.0
        assert storage["seek_depth"]["buckets"] == list(SEEK_DEPTH_BUCKETS)
        json.dumps(storage, default=str)

    def test_explain_analyze_storage_section(self):
        engine, trajectories = build_engine()
        assert engine.store.table.num_regions > 1
        regions_read = []
        for kwargs in ({"eps": 0.05}, {"eps": 3.0}, {"k": 5}):
            report = engine.explain_analyze(trajectories[0], **kwargs)
            assert report.storage is not None
            st = report.storage
            assert st["rows_scanned"] == report.io_delta["rows_scanned"]
            # The heatmap's per-region split of the query's rows sums to
            # the IOMetrics delta.
            assert sum(r["rows_scanned"] for r in st["regions"]) == st[
                "rows_scanned"
            ]
            rendered = report.render()
            assert "read amplification" in rendered
            payload = report.to_json()
            assert payload["storage"]["regions"] == st["regions"]
            regions_read.append(len(st["regions"]))
        # The wide radius reads more than one region.
        assert max(regions_read) > 1

    def test_scan_range_span_open_stop_reads_plus_inf(self):
        engine, _ = build_engine(n=60)
        start = engine.store.table.regions[-1].start_key
        tracer = engine.make_tracer()
        with engine.traced(tracer), tracer.span("probe"):
            engine.store.executor.scan_ranges(
                [ScanRange(None, start), ScanRange(start, None)]
            )
        spans = tracer.traces()[-1].find("scan.range")
        assert [(s.attrs["start"], s.attrs["stop"]) for s in spans] == [
            ("-inf", start[:12].hex()),
            (start[:12].hex(), "+inf"),
        ]

    def test_explain_analyze_storage_none_when_disabled(self):
        engine, trajectories = build_engine(storage_telemetry=False)
        report = engine.explain_analyze(trajectories[0], eps=0.05)
        assert report.storage is None
        report.render()  # must not crash without the section
