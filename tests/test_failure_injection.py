"""Failure-injection tests: corruption and malformed inputs must fail
loudly (never silently return wrong answers)."""

import dataclasses
import math
import struct

import pytest

from repro import TraSS, TraSSConfig, Trajectory, SpaceBounds
from repro.core.codec import encode_row
from repro.core.local_filter import LocalFilter, LocalFilterRowFilter
from repro.core.storage import TrajectoryRecord, TrajectoryStore
from repro.exceptions import (
    EncodingError,
    GeometryError,
    KVStoreError,
    QueryError,
)
from repro.features.dp_features import extract_dp_features
from repro.index.xzstar import XZStarIndex
from repro.kvstore.rowkey import encode_rowkey
from repro.measures import get_measure


class TestCorruptData:
    def test_row_blob_truncations_always_detected(self):
        points = [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]
        blob = encode_row("t", points, extract_dp_features(points, 0.01))
        store = TrajectoryStore()
        for decoder in (
            lambda value: store.decode_record(encode_rowkey(0, 0, "t"), value),
            TrajectoryRecord.from_row,
        ):
            for cut in range(len(blob)):
                # Construction alone must see the truncation.
                with pytest.raises(KVStoreError):
                    decoder(blob[:cut])

    def test_zero_point_row_raises_typed_error(self):
        """A row that frames no points is corrupt, not an empty
        geometry: the store's decode raises ``KVStoreError``."""
        blob = struct.pack(">III", 0, 0, 0) + struct.pack(">H", 1) + b"t"
        store = TrajectoryStore()
        with pytest.raises(KVStoreError):
            store.decode_record(encode_rowkey(0, 0, "t"), blob).features

    def test_rep_index_beyond_points_raises_typed_error(self):
        """A representative index that names no point raises
        ``KVStoreError`` where the features are first read, also from
        inside the local filter."""
        points = [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]
        features = extract_dp_features(points, 0.01)
        blob = bytearray(encode_row("t", points, features))
        # The first representative index sits after the point column
        # and the representative count.
        struct.pack_into(">I", blob, 4 + 16 * len(points) + 4, len(points))
        blob = bytes(blob)
        key = encode_rowkey(0, 0, "t")
        store = TrajectoryStore()
        with pytest.raises(KVStoreError):
            store.decode_record(key, blob).features
        local = LocalFilter(
            Trajectory("q", points), get_measure("frechet"), 0.5, 0.01
        )
        with pytest.raises(KVStoreError):
            LocalFilterRowFilter(local).accept(key, blob)

    def test_decode_rejects_foreign_values(self):
        index = XZStarIndex(4, SpaceBounds(0, 0, 1, 1))
        with pytest.raises(EncodingError):
            index.decode(index.total_index_spaces + 100)


class TestBadQueries:
    def setup_method(self):
        cfg = TraSSConfig(
            bounds=SpaceBounds(0, 0, 1, 1), max_resolution=8, shards=2
        )
        self.engine = TraSS.build(
            [Trajectory("a", [(0.5, 0.5), (0.51, 0.5)])], cfg
        )

    def test_negative_threshold(self):
        with pytest.raises(QueryError):
            self.engine.threshold_search(
                Trajectory("q", [(0.5, 0.5)]), -0.01
            )

    def test_zero_k(self):
        with pytest.raises(QueryError):
            self.engine.topk_search(Trajectory("q", [(0.5, 0.5)]), 0)

    def test_empty_query_trajectory(self):
        from repro.exceptions import GeometryError

        with pytest.raises(GeometryError):
            Trajectory("q", [])

    def test_out_of_bounds_query_still_answers(self):
        """Coordinates outside the configured bounds clamp into the
        space rather than corrupting the index walk."""
        q = Trajectory("q", [(5.0, 5.0), (5.1, 5.0)])
        result = self.engine.threshold_search(q, 0.01)
        assert result.answers == {}


class TestOutOfBounds:
    """The two sides of ``SpaceBounds``: a stored trajectory that leaves
    the bounds is rejected at ingest (``normalize`` would clamp it into
    an edge cell, and Lemmas 8-11 would then prune it from its own
    threshold query); a query that leaves them is answered exactly."""

    CFG = TraSSConfig(
        bounds=SpaceBounds(0, 0, 1, 1), max_resolution=10, shards=2
    )
    STRADDLE = Trajectory("straddle", [(0.9, 0.5), (1.3, 0.5)])

    def _rejected(self, call):
        with pytest.raises(GeometryError) as caught:
            call()
        message = str(caught.value)
        assert "'straddle'" in message
        assert "(0, 0) .. (1, 1)" in message

    def test_stored_trajectory_outside_bounds_rejected(self):
        for sorted_ingest in (False, True):
            engine = TraSS(self.CFG)
            self._rejected(
                lambda: engine.add_all([self.STRADDLE], sorted_ingest)
            )
            assert len(engine) == 0
        engine = TraSS(self.CFG)
        self._rejected(lambda: engine.add(self.STRADDLE))
        self._rejected(lambda: TraSS.build([self.STRADDLE], self.CFG))
        # the bounds themselves are inside
        engine.add(Trajectory("edge", [(0.0, 0.0), (1.0, 1.0)]))
        assert len(engine) == 1

    def test_cluster_rejects_before_fork(self):
        from repro.serve import ServingCluster

        data = [("inside", ((0.2, 0.2), (0.3, 0.3)))]
        data.append((self.STRADDLE.tid, self.STRADDLE.points))
        self._rejected(
            lambda: ServingCluster(self.CFG, "integer", data, partitions=2)
        )

    def test_out_of_bounds_queries_match_brute_force(self):
        import random

        from repro.measures import get_measure

        rng = random.Random(5)
        data = []
        for i in range(60):
            x, y = rng.uniform(0.7, 1.0), rng.uniform(0.0, 1.0)
            pts = [(x, y)]
            for _ in range(rng.randint(1, 8)):
                x = min(1.0, max(0.0, x + rng.uniform(-0.03, 0.03)))
                y = min(1.0, max(0.0, y + rng.uniform(-0.03, 0.03)))
                pts.append((x, y))
            data.append(Trajectory(f"t{i}", pts))
        engine = TraSS.build(data, self.CFG)
        measure = get_measure("frechet")
        queries = [
            self.STRADDLE,
            Trajectory("outside", [(1.1, 0.4), (1.2, 0.45)]),
            Trajectory("corner", [(1.05, -0.05), (0.98, 0.02)]),
            Trajectory("far", [(-2.0, -2.0), (-1.9, -2.0)]),
        ]
        for q in queries:
            exact = sorted(
                (measure.distance(q.points, t.points), t.tid) for t in data
            )
            for eps in (0.0, 0.1, 0.3, 4.0):
                got = engine.threshold_search(q, eps).answers
                assert got == {tid: d for d, tid in exact if d <= eps}
            assert engine.topk_search(q, 5).answers == exact[:5]


class TestConfigValidation:
    def test_bad_shards(self):
        with pytest.raises(QueryError):
            TraSSConfig(shards=0)
        with pytest.raises(QueryError):
            TraSSConfig(shards=500)

    def test_bad_dp_tolerance(self):
        with pytest.raises(QueryError):
            TraSSConfig(dp_tolerance=-1)

    def test_bad_measure(self):
        with pytest.raises(QueryError):
            TraSSConfig(measure_name="nope").make_measure()

    def test_bounds_must_be_space_bounds(self):
        with pytest.raises(QueryError, match="SpaceBounds"):
            TraSSConfig(bounds=(0, 0, 1, 1))


#: (field, a just-outside value, the boundary value) for every knob;
#: two-sided ranges get one case per side
KNOB_EDGES = [
    ("max_resolution", 0, 1),
    ("max_resolution", 29, 28),
    ("bounds", (0, 0, 1, 1), SpaceBounds(0, 0, 1, 1)),
    ("shards", 0, 1),
    ("shards", 257, 256),
    ("shards", 2.5, 2),
    ("dp_tolerance", -1e-9, 0.0),
    ("dp_tolerance", math.nan, 0),
    ("measure_name", "edr", "hausdorff"),
    ("max_planned_elements", 15, 16),
    ("range_merge_gap", -1, 0),
    ("max_region_rows", 1, 2),
    ("retry_max_attempts", 0, 1),
    ("scan_deadline_seconds", 0.0, 5e-324),
    ("scan_deadline_seconds", math.nan, None),
    ("degraded_mode", 1, True),
    ("cache_mb", -1e-9, 0.0),
    ("cache_mb", math.nan, 0),
    ("cache_mb", math.inf, 1e6),
    ("plan_cache_size", -1, 0),
    ("storage_telemetry", "yes", False),
]


class TestConfigBounds:
    def test_every_field_has_edge_cases(self):
        names = {f.name for f in dataclasses.fields(TraSSConfig)}
        assert {name for name, _, _ in KNOB_EDGES} == names
        assert len(names) == 14

    @pytest.mark.parametrize(
        "name, outside, boundary",
        KNOB_EDGES,
        ids=[f"{name}={outside!r}" for name, outside, _ in KNOB_EDGES],
    )
    def test_just_outside_raises_boundary_accepted(
        self, name, outside, boundary
    ):
        with pytest.raises(QueryError, match=name):
            TraSSConfig(**{name: outside})
        assert getattr(TraSSConfig(**{name: boundary}), name) == boundary

    def test_configure_execution_checks_the_same_bounds(self):
        engine = TraSS(TraSSConfig())
        with pytest.raises(QueryError, match="cache_mb"):
            engine.configure_execution(cache_mb=math.nan)
        assert engine.config.cache_mb == 0.0

    @pytest.mark.parametrize(
        "name",
        [
            "retry_backoff_base",
            "retry_backoff_max",
            "retry_jitter",
            "breaker_failure_threshold",
            "breaker_cooldown_seconds",
            "slow_query_log_size",
            "slow_query_threshold_seconds",
            "workload_log_size",
            "heatmap_buckets_per_shard",
            "heat_decay_queries",
        ],
    )
    def test_removed_knobs_are_not_fields(self, name):
        with pytest.raises(TypeError):
            TraSSConfig(**{name: 1})

    @pytest.mark.parametrize(
        "name",
        [
            "startup_timeout",
            "breaker_failure_threshold",
            "breaker_cooldown_seconds",
            "fault_schedules",
            "slo_objective_seconds",
            "slo_target",
        ],
    )
    def test_removed_cluster_keywords(self, name):
        from repro.serve import ServingCluster

        with pytest.raises(TypeError):
            ServingCluster(TraSSConfig(), "integer", [], **{name: 1})
