"""Unit tests for local filtering (Algorithm 2, Lemmas 12-14)."""

import math
import random

import pytest

from repro.core.local_filter import LocalFilter, LocalFilterRowFilter
from repro.core.codec import encode_row
from repro.core.storage import TrajectoryRecord
from repro.exceptions import QueryError
from repro.features.dp_features import extract_dp_features
from repro.geometry.trajectory import Trajectory
from repro.measures import discrete_frechet, get_measure

THETA = 0.01


def record_of(tid, points):
    features = extract_dp_features(points, THETA)
    return TrajectoryRecord.from_row(encode_row(tid, points, features), 0)


def walk(rng, start, n, step=0.02):
    x, y = start
    pts = [(x, y)]
    for _ in range(n - 1):
        x += rng.uniform(-step, step)
        y += rng.uniform(-step, step)
        pts.append((x, y))
    return pts


class TestSoundness:
    def test_never_rejects_similar(self):
        """The filter may only reject trajectories that are provably
        dissimilar — similar ones must always pass (no false
        dismissals)."""
        rng = random.Random(21)
        measure = get_measure("frechet")
        for _ in range(40):
            q = Trajectory("q", walk(rng, (0.5, 0.5), 12))
            t_points = walk(rng, (0.5 + rng.uniform(-0.1, 0.1), 0.5), 10)
            exact = discrete_frechet(q.points, t_points)
            filt = LocalFilter(q, measure, eps=exact + 1e-9, dp_tolerance=THETA)
            assert filt.passes(record_of("t", t_points))

    @pytest.mark.parametrize("name", ["frechet", "hausdorff", "dtw"])
    def test_never_rejects_similar_all_measures(self, name):
        rng = random.Random(22)
        measure = get_measure(name)
        for _ in range(25):
            q = Trajectory("q", walk(rng, (0.5, 0.5), 10))
            t_points = walk(rng, (0.52, 0.5), 9)
            exact = measure.distance(q.points, t_points)
            filt = LocalFilter(q, measure, eps=exact + 1e-9, dp_tolerance=THETA)
            assert filt.passes(record_of("t", t_points)), name


class TestRejections:
    def test_mbr_gap_rejection(self):
        q = Trajectory("q", [(0.1, 0.1), (0.12, 0.1)])
        filt = LocalFilter(q, get_measure("frechet"), 0.01, THETA)
        assert not filt.passes(record_of("far", [(0.9, 0.9), (0.92, 0.9)]))
        assert filt.stats.rejected_mbr == 1

    def test_start_end_rejection_frechet(self):
        """Lemma 12: same area but reversed direction fails for ordered
        measures."""
        pts = [(0.1 * i, 0.0) for i in range(6)]
        q = Trajectory("q", pts)
        reversed_t = record_of("r", list(reversed(pts)))
        filt = LocalFilter(q, get_measure("frechet"), 0.1, THETA)
        assert not filt.passes(reversed_t)
        assert filt.stats.rejected_start_end == 1

    def test_start_end_skipped_for_hausdorff(self):
        """Hausdorff ignores order; the reversed trajectory is at
        distance 0 and must pass (Section VII-A)."""
        pts = [(0.1 * i, 0.0) for i in range(6)]
        q = Trajectory("q", pts)
        reversed_t = record_of("r", list(reversed(pts)))
        filt = LocalFilter(q, get_measure("hausdorff"), 0.01, THETA)
        assert filt.passes(reversed_t)

    def test_rep_point_rejection(self):
        """Lemma 13: a spike far from the query's boxes kills the
        candidate even when endpoints and MBR gap pass."""
        q = Trajectory("q", [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)])
        spike = [(0.0, 0.0), (0.5, 0.4), (1.0, 0.0)]  # big detour
        filt = LocalFilter(q, get_measure("frechet"), 0.05, THETA)
        assert not filt.passes(record_of("s", spike))
        assert filt.stats.rejected_rep_points >= 1

    def test_infinite_eps_passes_everything(self):
        q = Trajectory("q", [(0.1, 0.1), (0.2, 0.1)])
        filt = LocalFilter(q, get_measure("frechet"), math.inf, THETA)
        assert filt.passes(record_of("far", [(0.9, 0.9)]))
        assert filt.stats.passed == 1

    def test_threshold_tightening(self):
        q = Trajectory("q", [(0.1, 0.1), (0.2, 0.1)])
        filt = LocalFilter(q, get_measure("frechet"), math.inf, THETA)
        near_miss = record_of("m", [(0.4, 0.1), (0.5, 0.1)])
        assert filt.passes(near_miss)
        filt.set_threshold(0.01)
        assert not filt.passes(near_miss)

    def test_negative_eps_rejected(self):
        q = Trajectory("q", [(0.1, 0.1)])
        with pytest.raises(QueryError):
            LocalFilter(q, get_measure("frechet"), -1.0, THETA)


class TestRowFilterAdapter:
    def test_accepted_rows_cached(self):
        q = Trajectory("q", [(0.1, 0.1), (0.2, 0.1)])
        filt = LocalFilter(q, get_measure("frechet"), 0.5, THETA)
        row_filter = LocalFilterRowFilter(filt)
        points = [(0.12, 0.1), (0.22, 0.1)]
        blob = encode_row("t9", points, extract_dp_features(points, THETA))
        assert row_filter.accept(b"key9", blob)
        assert b"key9" in row_filter.accepted
        assert row_filter.accepted[b"key9"].tid == "t9"

    def test_rejected_rows_not_cached(self):
        q = Trajectory("q", [(0.1, 0.1), (0.2, 0.1)])
        filt = LocalFilter(q, get_measure("frechet"), 0.01, THETA)
        row_filter = LocalFilterRowFilter(filt)
        points = [(0.9, 0.9), (0.92, 0.9)]
        blob = encode_row("far", points, extract_dp_features(points, THETA))
        assert not row_filter.accept(b"keyF", blob)
        assert b"keyF" not in row_filter.accepted


class TestFilterPower:
    def test_statistics_accumulate(self):
        rng = random.Random(23)
        q = Trajectory("q", walk(rng, (0.5, 0.5), 10))
        filt = LocalFilter(q, get_measure("frechet"), 0.05, THETA)
        for i in range(50):
            start = (rng.random(), rng.random())
            filt.passes(record_of(f"t{i}", walk(rng, start, 8)))
        assert filt.stats.evaluated == 50
        assert filt.stats.passed + filt.stats.rejected == 50
        # Most random trajectories are nowhere near the query.
        assert filt.stats.rejected > 25
