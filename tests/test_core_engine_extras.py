"""Tests for engine extras: explain, and behavioural edge cases."""

import random

import pytest

from repro import QueryError, TraSS, TraSSConfig, Trajectory, SpaceBounds

BOUNDS = SpaceBounds(0, 0, 1, 1)


@pytest.fixture(scope="module")
def engine_and_data():
    rng = random.Random(71)
    data = []
    for i in range(80):
        x, y = rng.random() * 0.9, rng.random() * 0.9
        pts = [(x, y)]
        for _ in range(rng.randint(2, 12)):
            x = min(0.99, max(0, x + rng.uniform(-0.01, 0.01)))
            y = min(0.99, max(0, y + rng.uniform(-0.01, 0.01)))
            pts.append((x, y))
        data.append(Trajectory(f"t{i}", pts))
    cfg = TraSSConfig(bounds=BOUNDS, max_resolution=10, shards=2)
    return TraSS.build(data, cfg), data


class TestExplain:
    def test_explain_mentions_key_facts(self, engine_and_data):
        engine, data = engine_and_data
        text = engine.explain(data[0], 0.02)
        assert "resolution band" in text
        assert "scan plan" in text
        assert "rows inside the plan" in text
        assert f"of {len(data)}" in text

    def test_explain_rows_bound_plan_rows(self, engine_and_data):
        """The rows-inside-plan figure must match what a scan touches."""
        engine, data = engine_and_data
        q = data[3]
        text = engine.explain(q, 0.02)
        reported = int(
            text.split("rows inside the plan: ")[1].split(" of")[0]
        )
        result = engine.threshold_search(q, 0.02)
        assert result.retrieved_rows == reported

    def test_explain_shows_query_placement(self, engine_and_data):
        engine, data = engine_and_data
        text = engine.explain(data[5], 0.01)
        placed = engine.store.index.index(data[5])
        assert f"'{placed.element.sequence_str}'" in text
        assert f"position code {placed.position_code}" in text


class TestQueryEdgeCases:
    def test_single_point_query(self, engine_and_data):
        engine, data = engine_and_data
        q = Trajectory("ping", [(0.5, 0.5)])
        result = engine.threshold_search(q, 0.05)
        from repro.measures import discrete_frechet

        want = {
            t.tid
            for t in data
            if discrete_frechet(q.points, t.points) <= 0.05
        }
        assert set(result.answers) == want

    def test_query_far_outside_data(self, engine_and_data):
        engine, _ = engine_and_data
        q = Trajectory("far", [(0.001, 0.999), (0.002, 0.998)])
        result = engine.threshold_search(q, 0.001)
        assert result.answers == {}
        # And the plan touched almost nothing.
        assert result.retrieved_rows <= 2

    def test_huge_eps_returns_everything(self, engine_and_data):
        engine, data = engine_and_data
        q = data[0]
        result = engine.threshold_search(q, 10.0)
        assert len(result.answers) == len(data)

    def test_topk_on_duplicate_heavy_store(self):
        pts = [(0.4, 0.4), (0.42, 0.41), (0.44, 0.42)]
        data = [Trajectory(f"dup{i}", pts) for i in range(12)]
        cfg = TraSSConfig(bounds=BOUNDS, max_resolution=10, shards=2)
        engine = TraSS.build(data, cfg)
        result = engine.topk_search(data[0], 5)
        assert len(result.answers) == 5
        assert all(d == pytest.approx(0.0) for d, _ in result.answers)

    def test_metrics_accumulate_across_queries(self, engine_and_data):
        engine, data = engine_and_data
        before = engine.metrics.snapshot()
        engine.threshold_search(data[0], 0.02)
        engine.topk_search(data[1], 3)
        diff = engine.metrics.diff(before)
        assert diff["range_seeks"] > 0


class TestStatsAndMetricsExport:
    def test_stats_includes_observability_sections(self, engine_and_data):
        engine, data = engine_and_data
        engine.threshold_search(data[0], 0.02)
        stats = engine.stats()
        assert stats["io"]["range_seeks"] > 0
        breaker = stats["resilience"]["breaker"]
        assert set(breaker) >= {"open_regions", "tracked_regions", "trips"}
        assert stats["resilience"]["faults"] is None  # no injector installed
        assert "slow_queries" not in stats

    def test_export_metrics_json(self, engine_and_data):
        engine, data = engine_and_data
        payload = engine.export_metrics("json")
        assert payload["trass.store.trajectories"]["value"] == len(data)
        assert (
            payload["trass.io.rows_scanned"]["value"]
            == engine.metrics.snapshot()["rows_scanned"]
        )

    def test_export_metrics_unknown_format(self, engine_and_data):
        engine, _ = engine_and_data
        with pytest.raises(QueryError):
            engine.export_metrics("csv")
