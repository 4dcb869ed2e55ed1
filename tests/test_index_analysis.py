"""Tests for plan-quality analysis (fragmentation, coverage, bands)."""

import random

import pytest

from repro import TraSS, TraSSConfig, Trajectory, SpaceBounds
from repro.index.analysis import analyse_plans, fragmentation_vs_merge_gap


@pytest.fixture(scope="module")
def engine_and_queries():
    rng = random.Random(81)
    data = []
    for i in range(100):
        x, y = rng.random() * 0.9, rng.random() * 0.9
        pts = [(x, y)]
        for _ in range(rng.randint(3, 12)):
            x = min(0.99, max(0, x + rng.uniform(-0.01, 0.01)))
            y = min(0.99, max(0, y + rng.uniform(-0.01, 0.01)))
            pts.append((x, y))
        data.append(Trajectory(f"t{i}", pts))
    cfg = TraSSConfig(bounds=SpaceBounds(0, 0, 1, 1), max_resolution=10, shards=2)
    return TraSS.build(data, cfg), data[:10]


class TestPlanAnalysis:
    def test_report_fields(self, engine_and_queries):
        engine, queries = engine_and_queries
        report = analyse_plans(engine, queries, eps=0.02)
        assert report.queries == 10
        assert report.mean_ranges >= 1
        assert report.max_ranges >= report.mean_ranges
        assert report.mean_index_spaces >= 1
        assert 0.0 <= report.truncated_fraction <= 1.0
        assert sum(report.band_histogram.values()) == 10

    def test_summary_renders(self, engine_and_queries):
        engine, queries = engine_and_queries
        text = analyse_plans(engine, queries, eps=0.02).summary()
        assert "ranges/query" in text
        assert "resolution bands:" in text

    def test_rows_covered_bounds_retrieved(self, engine_and_queries):
        """Rows covered by the plan equals what a scan would touch."""
        engine, queries = engine_and_queries
        report = analyse_plans(engine, queries, eps=0.02)
        total_retrieved = 0
        for q in queries:
            total_retrieved += engine.threshold_search(q, 0.02).retrieved_rows
        assert report.mean_rows_covered == pytest.approx(
            total_retrieved / len(queries)
        )

    def test_fragmentation_decreases_with_gap(self, engine_and_queries):
        engine, queries = engine_and_queries
        sweep = fragmentation_vs_merge_gap(
            engine, queries, eps=0.02, gaps=[0, 2, 8, 32]
        )
        values = [sweep[g] for g in (0, 2, 8, 32)]
        assert values == sorted(values, reverse=True)
