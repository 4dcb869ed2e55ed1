"""Storage telemetry against the per-row oracle.

``KVTable.scan`` adds heat once per range, ``KeySpaceHeatmap`` decays
in O(1) by scaling the weight a row adds, and the workload recorder
keeps the query's own point tuple.  ``tests/telemetry_oracle.py`` keeps
the per-row / per-query implementations they replaced.  Two engines
over the same data run the same seeded workload (region splits, masked
faults with retries and forced mid-scan splits, an early-closed scan, a
batch) — one on the live telemetry, one on the oracle — and must agree
on every bucket's row count, the tick, every recorded entry's JSON
bytes and digest, and on heat to 1e-12 relative, through save → load →
replay.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random
import types

import pytest

from repro import SpaceBounds, TraSS, TraSSConfig, Trajectory
from repro.core.storage import INTEGER_KEYS, STRING_KEYS
from repro.kvstore.faults import FaultInjector, FaultSchedule
from repro.obs.heatmap import KeySpaceHeatmap
from repro.obs.workload_log import TELEMETRY_FILE, answers_digest
from tests import telemetry_oracle as oracle

BOUNDS = SpaceBounds(0.0, 0.0, 10.0, 10.0)
REL = 1e-12


def fleet(seed: int, n: int):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        # A third of the fleet crowds one corner, so heat is skewed.
        if i % 3 == 0:
            x, y = 1.0 + rng.uniform(0, 0.3), 1.0 + rng.uniform(0, 0.3)
        else:
            x, y = rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5)
        points = [(x, y)]
        for _ in range(rng.randint(2, 8)):
            x += rng.uniform(-0.02, 0.02)
            y += rng.uniform(-0.02, 0.02)
            points.append((x, y))
        out.append(Trajectory(f"t{i}", points))
    return out


def config(cache_mb: float) -> TraSSConfig:
    # Eight attempts mask one failure per region of a range that spans
    # several regions.
    return TraSSConfig(
        bounds=BOUNDS,
        max_resolution=8,
        shards=4,
        dp_tolerance=0.005,
        max_region_rows=30,
        cache_mb=cache_mb,
        retry_max_attempts=8,
    )


@pytest.fixture
def clock(monkeypatch):
    """Every query takes 0.25 s, so both sides record the same
    ``seconds`` and their entries compare as bytes."""
    import repro.core.engine as engine_module

    ticks = itertools.count()
    monkeypatch.setattr(
        engine_module,
        "time",
        types.SimpleNamespace(perf_counter=lambda: next(ticks) * 0.25),
    )


def pair(key_encoding: str, cache_mb: float, data):
    live = TraSS.build(data, config(cache_mb), key_encoding=key_encoding)
    reference = TraSS.build(data, config(cache_mb), key_encoding=key_encoding)
    oracle.install(reference)
    assert live.store.table.num_regions > 1  # max_region_rows split it
    return live, reference


def assert_heat_close(heat, expected) -> None:
    assert len(heat) == len(expected)
    for got, want in zip(heat, expected):
        assert math.isclose(got, want, rel_tol=REL, abs_tol=0.0), (got, want)


def assert_same_telemetry(live, reference) -> None:
    a = live.heatmap
    b = reference.heatmap
    assert a.rows == b.rows
    assert a.tick == b.tick
    assert_heat_close(a.heat, b.heat)
    entries_a = live.workload_recorder.entries()
    entries_b = reference.workload_recorder.entries()
    assert [json.dumps(e.to_json()) for e in entries_a] == [
        json.dumps(e.to_json()) for e in entries_b
    ]
    assert live.metrics.snapshot() == reference.metrics.snapshot()


def workload(engine, data, seed: int) -> None:
    rng = random.Random(seed)
    queries = [data[rng.randrange(len(data))] for _ in range(24)]
    for i, query in enumerate(queries):
        if i % 4 == 3:
            engine.topk_search(query, rng.choice((1, 5, 12)))
        else:
            engine.threshold_search(query, rng.choice((0.02, 0.1, 0.6)))
    # A batch ticks the heat but records nothing.
    engine.threshold_search_many(queries[:5], 0.1)


def run_both(live, reference, data, seed):
    for engine in (live, reference):
        workload(engine, data, seed)


@pytest.mark.parametrize(
    "key_encoding, cache_mb", [(INTEGER_KEYS, 0.0), (STRING_KEYS, 1.0)]
)
def test_workload_matches_the_oracle(clock, key_encoding, cache_mb):
    data = fleet(7, 180)
    live, reference = pair(key_encoding, cache_mb, data)
    run_both(live, reference, data, seed=3)
    assert_same_telemetry(live, reference)
    assert live.heatmap.tick == 29
    assert sum(live.heatmap.rows) > 0


def test_masked_faults_and_forced_splits_match_the_oracle(clock):
    data = fleet(11, 150)
    live, reference = pair(INTEGER_KEYS, 0.0, data)
    for engine in (live, reference):
        engine.install_fault_injector(
            FaultInjector(
                FaultSchedule(
                    seed=9,
                    region_unavailable_prob=0.3,
                    max_consecutive_failures=1,
                    split_prob=0.2,
                    compact_prob=0.1,
                )
            )
        )
    run_both(live, reference, data, seed=5)
    assert live.metrics.retries > 0
    assert live.fault_injector.forced_splits > 0
    assert_same_telemetry(live, reference)
    for engine in (live, reference):
        engine.install_fault_injector(None)
    run_both(live, reference, data, seed=6)
    assert_same_telemetry(live, reference)


@pytest.mark.parametrize("key_encoding", [INTEGER_KEYS, STRING_KEYS])
def test_early_closed_scans_match_the_oracle(clock, key_encoding):
    data = fleet(13, 120)
    live, reference = pair(key_encoding, 0.0, data)
    boundaries = live.heatmap.boundaries
    keys = [  # read beneath the telemetry
        key for region in live.store.table.regions
        for key, _ in region.store.scan()
    ]
    inside = [k for k in keys if boundaries[2] <= k < boundaries[3]]
    ranges = [
        (None, None),  # every bucket, through the cursor
        (keys[5], keys[-5]),
        (boundaries[2], boundaries[3]),  # one bucket, added once
        (inside[0], inside[-1]) if len(inside) > 1 else (keys[0], keys[1]),
    ]
    for engine in (live, reference):
        table = engine.store.table
        for start, stop in ranges:
            for take in (0, 1, 7, 10**6):
                scan = table.scan(start, stop)
                for _ in zip(range(take), scan):
                    pass
                scan.close()
        engine.heatmap.advance_tick()
    assert_same_telemetry(live, reference)


def test_save_load_replay_matches_the_oracle(clock, tmp_path):
    data = fleet(17, 160)
    live, reference = pair(INTEGER_KEYS, 0.0, data)
    run_both(live, reference, data, seed=8)
    assert_same_telemetry(live, reference)
    live.save(str(tmp_path / "live"))
    reference.save(str(tmp_path / "reference"))

    saved = [
        json.load(open(os.path.join(tmp_path / side, TELEMETRY_FILE)))
        for side in ("live", "reference")
    ]
    assert saved[0]["workload"] == saved[1]["workload"]
    heat = [s["heatmap"].pop("heat") for s in saved]
    assert saved[0]["heatmap"] == saved[1]["heatmap"]
    assert_heat_close(heat[0], heat[1])

    loaded = TraSS.load(str(tmp_path / "live"))
    loaded_reference = TraSS.load(str(tmp_path / "reference"))
    oracle.install(loaded_reference)
    assert_same_telemetry(loaded, loaded_reference)
    assert len(loaded.workload_recorder) == 24
    reports = [engine.replay() for engine in (loaded, loaded_reference)]
    for report in reports:
        assert report.ok and report.total == 24
    assert [o.digest for o in reports[0].outcomes] == [
        o.digest for o in reports[1].outcomes
    ]
    # A log the oracle wrote replays on the live code.
    crossed = TraSS.load(str(tmp_path / "reference"))
    assert crossed.replay().ok
    # Replays record nothing, and later queries still agree.
    run_both(loaded, loaded_reference, data, seed=9)
    assert_same_telemetry(loaded, loaded_reference)


def assert_heat_rows_are_io_rows(engine) -> None:
    """The heatmap is the one gated account of scan traffic: its
    lifetime rows are every row ``IOMetrics`` counts scanned or got."""
    io = engine.metrics
    assert engine.heatmap.total_rows == io.rows_scanned + io.gets > 0


@pytest.mark.parametrize(
    "overrides, schedule",
    [
        ({}, None),
        (
            {},
            FaultSchedule(
                seed=9,
                region_unavailable_prob=0.3,
                max_consecutive_failures=1,
                split_prob=0.2,
                compact_prob=0.1,
            ),
        ),
        (
            {"degraded_mode": True, "retry_max_attempts": 2},
            FaultSchedule(
                seed=4,
                region_unavailable_prob=0.5,
                max_consecutive_failures=6,
                split_prob=0.2,
                compact_prob=0.1,
            ),
        ),
    ],
    ids=["clean", "masked-faults", "degraded"],
)
def test_heat_rows_equal_io_rows(overrides, schedule):
    data = fleet(37, 150)
    engine = TraSS.build(
        data, dataclasses.replace(config(0.0), **overrides)
    )
    assert engine.store.table.num_regions > 1
    if schedule is not None:
        engine.install_fault_injector(FaultInjector(schedule))
    workload(engine, data, seed=10)
    assert_heat_rows_are_io_rows(engine)
    if schedule is not None:
        assert engine.metrics.retries > 0
        assert engine.fault_injector.forced_splits > 0
    if overrides:
        assert engine.metrics.ranges_skipped > 0
    # Point reads count too.
    engine.install_fault_injector(None)
    key, _ = next(engine.store.table.full_scan())
    engine.store.table.get(key)
    assert_heat_rows_are_io_rows(engine)


def test_decay_folds_the_weight_back_like_the_oracle():
    """A half-life of one query folds the weight every 64 ticks."""
    boundaries = [bytes([b]) for b in range(1, 9)]
    live = KeySpaceHeatmap(boundaries, half_life=1.0)
    reference = oracle.KeySpaceHeatmap(boundaries, half_life=1.0)
    rng = random.Random(4)
    for _ in range(300):
        for _ in range(rng.randrange(4)):
            key = bytes([rng.randrange(10)])
            live.record(key)
            reference.record(key)
        bucket = rng.randrange(9)
        live.add(bucket, 3)
        for _ in range(3):
            reference.heat[bucket] += 1.0
            reference.rows[bucket] += 1
        live.advance_tick()
        reference.advance_tick()
        assert live._weight <= 2.0**64
    assert live.rows == reference.rows
    assert_heat_close(live.heat, reference.heat)
    assert live.total_heat == pytest.approx(reference.total_heat, rel=REL)


def test_no_decay_keeps_exact_counts():
    live = KeySpaceHeatmap([b"\x01"], half_life=0.0)
    for _ in range(5):
        live.record(b"\x00")
        live.advance_tick()
    assert live.heat == [5.0, 0.0] and live.tick == 5


def test_mutating_answers_after_the_query_keeps_the_digest(clock):
    data = fleet(23, 100)
    engine = TraSS.build(data, config(0.0))
    threshold = engine.threshold_search(data[0], 0.6)
    top = engine.topk_search(data[3], 5)
    recorded = engine.workload_recorder.entries()
    before = [json.dumps(e.to_json()) for e in recorded]
    assert recorded[0].answers_digest == answers_digest("threshold", threshold)
    assert recorded[1].answers_digest == answers_digest("topk", top)
    assert recorded[0].answers_digest == oracle.answers_digest(
        "threshold", threshold
    )
    assert recorded[1].answers_digest == oracle.answers_digest("topk", top)
    threshold.answers.clear()
    threshold.answers["intruder"] = 0.0
    top.answers.reverse()
    top.answers.append((0.0, "intruder"))
    assert [json.dumps(e.to_json()) for e in recorded] == before
    assert engine.replay().ok


def test_entry_points_are_the_query_tuple():
    data = fleet(29, 60)
    engine = TraSS.build(data, config(0.0))
    engine.threshold_search(data[1], 0.1)
    (entry,) = engine.workload_recorder.entries()
    assert entry.points is data[1].points


def test_range_bucket_is_the_one_bucket_of_every_key_in_range():
    """``range_bucket`` names a bucket only when every key of the range
    lies in it; checked against a brute force over all short keys."""
    import bisect

    alphabet = b"\x00\x01\x02\xff"
    universe = sorted(
        {
            bytes(k)
            for n in (0, 1, 2)
            for k in itertools.product(alphabet, repeat=n)
        }
    )
    rng = random.Random(12)
    for _ in range(200):
        boundaries = sorted(set(rng.sample(universe[1:], rng.randint(1, 6))))
        heatmap = KeySpaceHeatmap(boundaries)
        start, stop = sorted(rng.sample(universe, 2))
        ends = ((start, stop), (None, stop), (start, None), (None, None))
        for lo, hi in ends:
            buckets = {
                bisect.bisect_right(boundaries, k)
                for k in universe
                if (lo is None or k >= lo) and (hi is None or k < hi)
            }
            crosses = any(
                (lo is None or lo < b) and (hi is None or b < hi)
                for b in boundaries
            )
            got = heatmap.range_bucket(lo, hi)
            assert (got is None) == crosses, (boundaries, lo, hi)
            if got is not None:
                assert buckets <= {got}, (boundaries, lo, hi)


def test_query_metrics_appear_with_their_first_query():
    data = fleet(31, 40)
    engine = TraSS.build(data, config(0.0))
    names = set(engine.export_metrics())
    assert not any(name.startswith("trass.query.") for name in names)
    engine.threshold_search(data[0], 0.1)
    names = set(engine.export_metrics())
    assert {"trass.query.seconds", "trass.query.threshold.count"} <= names
    assert "trass.query.topk.count" not in names
    engine.topk_search(data[0], 3)
    engine.threshold_search(data[1], 0.1)
    exported = engine.export_metrics()
    assert exported["trass.query.topk.count"]["value"] == 1
    assert exported["trass.query.threshold.count"]["value"] == 2
    assert exported["trass.query.seconds"]["count"] == 3


def test_digest_bytes_match_json_dumps():
    """The digest writes the canonical JSON itself; it must hash the
    same bytes ``json.dumps`` gives, for escaped and non-ASCII tids and
    for every float ``repr`` shape."""
    rng = random.Random(5)
    alphabet = 'ab"\\/\x00\x1f\n\t é€\U0001d11e'
    distances = (0.0, -0.0, 1e-300, 5e-324, 1e308, math.inf, 3, 0.1)

    class Result:
        def __init__(self, answers):
            self.answers = answers

    for _ in range(300):
        answers = {
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6))): (
                rng.choice(distances) if rng.random() < 0.5 else rng.random()
            )
            for _ in range(rng.randint(0, 6))
        }
        threshold = Result(answers)
        top = Result(sorted(((d, t) for t, d in answers.items()), key=repr))
        assert answers_digest("threshold", threshold) == oracle.answers_digest(
            "threshold", threshold
        )
        assert answers_digest("topk", top) == oracle.answers_digest(
            "topk", top
        )
