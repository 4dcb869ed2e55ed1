"""Unit tests for global pruning (Algorithm 1, Lemmas 6-11)."""

import random

import pytest

from repro import TraSSConfig, Trajectory, SpaceBounds
from repro.core.pruning import GlobalPruner
from repro.exceptions import QueryError
from repro.index.xzstar import XZStarIndex
from repro.measures import discrete_frechet

UNIT = SpaceBounds(0, 0, 1, 1)


def pruner(max_resolution=8, bounds=UNIT, budget=8192):
    return GlobalPruner(XZStarIndex(max_resolution, bounds), budget)


def walk(rng, start, n, step=0.01):
    x, y = start
    pts = [(x, y)]
    for _ in range(n - 1):
        x = min(0.999, max(0.0, x + rng.uniform(-step, step)))
        y = min(0.999, max(0.0, y + rng.uniform(-step, step)))
        pts.append((x, y))
    return pts


class TestResolutionBand:
    def test_band_ordering(self):
        p = pruner()
        q = Trajectory("q", [(0.4, 0.4), (0.45, 0.44)])
        min_r, max_r = p.resolution_band(q, eps=0.01)
        assert 0 <= min_r <= max_r <= 8

    def test_small_eps_narrow_band(self):
        p = pruner(max_resolution=16)
        q = Trajectory("q", [(0.4, 0.4), (0.45, 0.44)])
        narrow = p.resolution_band(q, eps=0.001)
        wide = p.resolution_band(q, eps=0.1)
        assert narrow[0] >= wide[0]  # MinR grows as eps shrinks

    def test_tiny_query_maxr_is_max(self):
        p = pruner(max_resolution=10)
        q = Trajectory("q", [(0.5, 0.5), (0.5005, 0.5)])
        _, max_r = p.resolution_band(q, eps=0.01)
        assert max_r == 10

    def test_big_query_caps_maxr(self):
        p = pruner(max_resolution=10)
        q = Trajectory("q", [(0.1, 0.1), (0.6, 0.6)])
        _, max_r = p.resolution_band(q, eps=0.01)
        assert max_r < 10  # elements much smaller than Q are useless


class TestPruneSoundness:
    def test_no_similar_trajectory_escapes(self):
        """Any trajectory within eps of the query must land in the
        pruner's surviving index spaces — the global soundness
        property everything else rests on."""
        rng = random.Random(11)
        index = XZStarIndex(8, UNIT)
        p = GlobalPruner(index)
        for trial in range(30):
            q = Trajectory("q", walk(rng, (rng.random() * 0.8, rng.random() * 0.8), 10))
            eps = rng.choice([0.005, 0.02, 0.05])
            result = p.prune(q, eps)
            covered = lambda v: any(r.contains(v) for r in result.ranges)
            for i in range(40):
                t = Trajectory(
                    f"t{i}",
                    walk(rng, (rng.random() * 0.8, rng.random() * 0.8), 8),
                )
                if discrete_frechet(q.points, t.points) <= eps:
                    assert covered(index.index(t).value), (trial, i)

    def test_far_trajectories_usually_pruned(self):
        """Effectiveness: a trajectory far from the query should not be
        covered by the plan (this is the 66.4% I/O claim's mechanism)."""
        index = XZStarIndex(8, UNIT)
        p = GlobalPruner(index)
        q = Trajectory("q", [(0.1, 0.1), (0.12, 0.11), (0.14, 0.12)])
        result = p.prune(q, eps=0.01)
        far = Trajectory("far", [(0.8, 0.8), (0.82, 0.81), (0.84, 0.82)])
        far_value = index.index(far).value
        assert not any(r.contains(far_value) for r in result.ranges)

    def test_eps_zero_allowed(self):
        p = pruner()
        q = Trajectory("q", [(0.3, 0.3), (0.32, 0.31)])
        result = p.prune(q, eps=0.0)
        # The query's own index space must always survive at eps 0.
        own = p.index.index(q).value
        assert any(r.contains(own) for r in result.ranges)

    def test_negative_eps_rejected(self):
        with pytest.raises(QueryError):
            pruner().prune(Trajectory("q", [(0.1, 0.1)]), -0.5)


class TestPruneEffectiveness:
    def test_plan_grows_with_eps(self):
        p = pruner(max_resolution=10)
        q = Trajectory("q", [(0.4, 0.4), (0.42, 0.41)])
        small = p.prune(q, eps=0.005).num_index_spaces
        large = p.prune(q, eps=0.05).num_index_spaces
        assert small <= large

    def test_position_codes_reduce_plan_vs_all_codes(self):
        """The plan must be smaller than accepting all 9/10 codes of
        every candidate element (the XZ* vs XZ2 advantage)."""
        index = XZStarIndex(8, UNIT)
        p = GlobalPruner(index)
        # An L-shaped query hugging two quads leaves far quads prunable.
        q = Trajectory("q", [(0.30, 0.30), (0.30, 0.42), (0.42, 0.42)])
        result = p.prune(q, eps=0.004)
        assert result.codes_pruned_far_quad > 0

    def test_truncation_safety_valve(self):
        """With a tiny planner budget the plan must still cover every
        similar trajectory (via subtree ranges)."""
        rng = random.Random(13)
        index = XZStarIndex(10, UNIT)
        tight = GlobalPruner(index, max_planned_elements=32)
        q = Trajectory("q", walk(rng, (0.4, 0.4), 12))
        result = tight.prune(q, eps=0.05)
        assert result.truncated
        covered = lambda v: any(r.contains(v) for r in result.ranges)
        for i in range(30):
            t = Trajectory(
                f"t{i}", walk(rng, (rng.random() * 0.8, rng.random() * 0.8), 6)
            )
            if discrete_frechet(q.points, t.points) <= 0.05:
                assert covered(index.index(t).value)

    def test_position_codes_ablation_is_superset(self):
        """With Lemmas 10-11 disabled the plan must cover at least the
        full plan's index spaces (ablation correctness)."""
        rng = random.Random(14)
        index = XZStarIndex(8, UNIT)
        full = GlobalPruner(index, use_position_codes=True)
        ablated = GlobalPruner(index, use_position_codes=False)
        for _ in range(10):
            q = Trajectory(
                "q", walk(rng, (rng.random() * 0.8, rng.random() * 0.8), 8)
            )
            plan_full = full.prune(q, 0.02)
            plan_ablated = ablated.prune(q, 0.02)
            in_ablated = lambda v: any(
                r.contains(v) for r in plan_ablated.ranges
            )
            for r in plan_full.ranges:
                for v in range(r.start, min(r.stop, r.start + 50)):
                    assert in_ablated(v)
            assert (
                plan_ablated.num_index_spaces >= plan_full.num_index_spaces
            )

    def test_visit_counts_reported(self):
        p = pruner()
        q = Trajectory("q", [(0.2, 0.2), (0.25, 0.22)])
        result = p.prune(q, eps=0.01)
        assert result.elements_visited > 0
        assert result.min_resolution <= result.max_resolution


class TestPlanCache:
    def test_hit_computes_no_resolution_band(self, monkeypatch):
        """The band is a function of the points and eps for one pruner:
        a hit returns the cached plan without computing it, and counts
        and traces exactly as a miss-then-hit always did."""
        from repro.kvstore.metrics import IOMetrics
        from repro.obs.tracing import Tracer

        metrics = IOMetrics()
        p = GlobalPruner(
            XZStarIndex(8, UNIT), plan_cache_size=4, metrics=metrics
        )
        bands = []
        band = p.resolution_band

        def counted(query, eps):
            bands.append(eps)
            return band(query, eps)

        monkeypatch.setattr(p, "resolution_band", counted)
        q = Trajectory("q", walk(random.Random(3), (0.4, 0.4), 12))
        tracer = Tracer()
        miss = p.prune(q, 0.02, tracer)
        hit = p.prune(q, 0.02, tracer)
        assert hit is miss
        assert bands == [0.02]
        assert (metrics.plan_cache_misses, metrics.plan_cache_hits) == (1, 1)
        first, second = (span.attrs for span in tracer.traces())
        assert first.pop("plan_cache") == "miss"
        assert second.pop("plan_cache") == "hit"
        assert first == second
        assert (first["min_resolution"], first["max_resolution"]) == band(
            q, 0.02
        )
        # Another eps is another key, and its band is computed.
        p.prune(q, 0.05)
        assert bands[-1] == 0.05 and metrics.plan_cache_misses == 2
