"""Tests for the simplifier error contract the DP features rely on."""

import random

from repro.features.douglas_peucker import douglas_peucker
from repro.geometry.distance import point_segment_distance


def walk(rng, n, start=(0.0, 0.0), step=0.05):
    x, y = start
    pts = [(x, y)]
    for _ in range(n - 1):
        x += rng.uniform(-step, step)
        y += rng.uniform(-step, step)
        pts.append((x, y))
    return pts


class TestSimplifiers:
    def test_dp_same_contract(self):
        """Douglas-Peucker keeps every dropped point within theta of its
        covering chord, the bound the DP features are built on."""
        rng = random.Random(4)
        pts = walk(rng, 50)
        theta = 0.02
        kept = douglas_peucker(pts, theta)
        assert kept[0] == 0 and kept[-1] == len(pts) - 1
        worst = 0.0
        for a, b in zip(kept, kept[1:]):
            for i in range(a + 1, b):
                worst = max(worst, point_segment_distance(pts[i], pts[a], pts[b]))
        assert worst <= theta + 1e-12
