"""The free-space-banded Fréchet and DTW kernels against the dense DPs.

Exact refinement runs on one banded traversal per measure
(``frechet._banded_sq``, ``dtw._banded_sum``) that visits only the
lattice cells a coupling within the limit can reach.  The dense dynamic
programs they replaced live on here, verbatim, as the oracle.  Every
distance, decision and fused value must be *equal*, not close: the
Fréchet recurrence only selects values and the DTW one adds them in the
same order, so nothing may round differently.  This file is the gate
for a measure kernel — the benchmark's brute-force oracle calls the same
``measure.distance`` and cannot see a wrong one.
"""

import math
import random
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.measures import get_measure
from repro.measures.dtw import _banded_sum, _greedy_sum
from repro.measures.frechet import _banded_sq, _greedy_sq

_INF = math.inf
FRECHET = get_measure("frechet")
DTW = get_measure("dtw")


# ----------------------------------------------------------------------
# The reference: the dense Fréchet DPs, as they were.
# ----------------------------------------------------------------------
def _sq_dist_rows(a, b) -> List[List[float]]:
    """The n x m matrix of squared pairwise distances, as row lists.

    Vectorised once up front; the DP then reads plain Python floats,
    which is far cheaper than per-cell ``hypot`` calls.
    """
    n, m = len(a), len(b)
    ax = np.fromiter((p[0] for p in a), dtype=float, count=n)
    ay = np.fromiter((p[1] for p in a), dtype=float, count=n)
    bx = np.fromiter((p[0] for p in b), dtype=float, count=m)
    by = np.fromiter((p[1] for p in b), dtype=float, count=m)
    dx = ax[:, None] - bx[None, :]
    dy = ay[:, None] - by[None, :]
    return (dx * dx + dy * dy).tolist()


def _relaxed_sq(eps: float) -> float:
    """A clamping bound slightly above ``eps**2``.

    The relaxation only admits extra lattice paths; the final decision
    is made in the sqrt domain, keeping ``within`` consistent with
    ``distance`` even when ``eps`` equals the exact value.
    """
    return (eps * (1.0 + 1e-12)) ** 2 if eps > 0 else 0.0


def discrete_frechet(a, b) -> float:
    """Exact discrete Fréchet distance between point sequences."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("discrete Fréchet distance of an empty sequence")
    d2 = _sq_dist_rows(a, b)
    # Degenerate rows of Definition 2.
    if n == 1:
        return math.sqrt(max(d2[0]))
    if m == 1:
        return math.sqrt(max(row[0] for row in d2))

    prev = [0.0] * m
    row = d2[0]
    acc = row[0]
    prev[0] = acc
    for j in range(1, m):
        d = row[j]
        if d > acc:
            acc = d
        prev[j] = acc
    cur = [0.0] * m
    for i in range(1, n):
        row = d2[i]
        d = row[0]
        cur[0] = prev[0] if prev[0] > d else d
        for j in range(1, m):
            reach = min(prev[j], prev[j - 1], cur[j - 1])
            d = row[j]
            cur[j] = reach if reach > d else d
        prev, cur = cur, prev
    return math.sqrt(prev[m - 1])


def _frechet_within_value(a, b, eps: float) -> Optional[float]:
    """Squared final DP value when some coupling stays within the
    relaxed bound, else ``None`` (the shared early-abandoning kernel).
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("discrete Fréchet distance of an empty sequence")
    d2 = _sq_dist_rows(a, b)
    limit = _relaxed_sq(eps)
    if n == 1:
        worst = max(d2[0])
        return worst if worst <= limit else None
    if m == 1:
        worst = max(row[0] for row in d2)
        return worst if worst <= limit else None

    prev = [_INF] * m
    row = d2[0]
    acc = row[0]
    prev[0] = acc if acc <= limit else _INF
    for j in range(1, m):
        if acc > limit:
            break
        d = row[j]
        if d > acc:
            acc = d
        prev[j] = acc if acc <= limit else _INF
    cur = [_INF] * m
    for i in range(1, n):
        row = d2[i]
        d = row[0]
        v = prev[0] if prev[0] > d else d
        cur[0] = v if v <= limit else _INF
        alive = cur[0] < _INF
        for j in range(1, m):
            reach = min(prev[j], prev[j - 1], cur[j - 1])
            if reach == _INF:
                cur[j] = _INF
                continue
            d = row[j]
            v = reach if reach > d else d
            if v <= limit:
                cur[j] = v
                alive = True
            else:
                cur[j] = _INF
        if not alive:
            return None
        prev, cur = cur, prev
    final = prev[m - 1]
    return final if final < _INF else None


def reference_frechet_within(a, b, eps) -> bool:
    final = _frechet_within_value(a, b, eps)
    return final is not None and math.sqrt(final) <= eps


def reference_frechet_distance_within(a, b, eps) -> Optional[float]:
    if eps == _INF:
        return discrete_frechet(a, b)
    final = _frechet_within_value(a, b, eps)
    if final is None:
        return None
    value = math.sqrt(final)
    return value if value <= eps else None


# ----------------------------------------------------------------------
# The reference: the dense DTW DPs, as they were.
# ----------------------------------------------------------------------
def _dist_rows(a, b) -> List[List[float]]:
    """The n x m pairwise distance matrix, as row lists."""
    n, m = len(a), len(b)
    ax = np.fromiter((p[0] for p in a), dtype=float, count=n)
    ay = np.fromiter((p[1] for p in a), dtype=float, count=n)
    bx = np.fromiter((p[0] for p in b), dtype=float, count=m)
    by = np.fromiter((p[1] for p in b), dtype=float, count=m)
    dx = ax[:, None] - bx[None, :]
    dy = ay[:, None] - by[None, :]
    return np.sqrt(dx * dx + dy * dy).tolist()


def dtw(a, b) -> float:
    """Exact DTW distance between point sequences."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("DTW distance of an empty sequence")
    dist = _dist_rows(a, b)
    # Boundary row: only the (0, 0) entry point is free.
    prev = [0.0] + [_INF] * m
    for i in range(n):
        row = dist[i]
        cur = [_INF] * (m + 1)
        for j in range(1, m + 1):
            best = min(prev[j], prev[j - 1], cur[j - 1])
            if best == _INF:
                continue
            cur[j] = best + row[j - 1]
        prev = cur
    return prev[m]


def _dtw_within_value(a, b, eps: float) -> Optional[float]:
    """Final DP value when some alignment stays within ``eps``, else
    ``None`` (the shared early-abandoning kernel)."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("DTW distance of an empty sequence")
    dist = _dist_rows(a, b)
    prev = [_INF] * (m + 1)
    prev[0] = 0.0
    for i in range(n):
        row = dist[i]
        cur = [_INF] * (m + 1)
        alive = False
        for j in range(1, m + 1):
            best = min(prev[j], prev[j - 1], cur[j - 1])
            if best == _INF:
                continue
            v = best + row[j - 1]
            if v <= eps:
                cur[j] = v
                alive = True
        if not alive:
            return None
        prev = cur
        prev[0] = _INF  # only the very first row may start at (0,0)
    return prev[m] if prev[m] <= eps else None


def reference_dtw_distance_within(a, b, eps) -> Optional[float]:
    if eps == _INF:
        return dtw(a, b)
    return _dtw_within_value(a, b, eps)


# ----------------------------------------------------------------------
# The checks.
# ----------------------------------------------------------------------
def thresholds(d: float) -> List[float]:
    """Around an exact distance: zero, at it, one ulp either side, well
    inside, well outside, unbounded."""
    return [
        0.0,
        d,
        math.nextafter(d, _INF),
        math.nextafter(d, -_INF),
        d / 2,
        2 * d,
        _INF,
    ]


def check_frechet(a, b) -> None:
    d = discrete_frechet(a, b)
    assert FRECHET.distance(a, b) == d
    for eps in thresholds(d):
        assert FRECHET.within(a, b, eps) == reference_frechet_within(a, b, eps)
        assert FRECHET.distance_within(
            a, b, eps
        ) == reference_frechet_distance_within(a, b, eps)
    # The greedy bound is never below the optimum, and the band clamps
    # exactly at its limit: at the squared distance the value survives,
    # one ulp below it the pair dies.
    d2 = _frechet_within_value(a, b, _INF)
    assert _greedy_sq(a, b) >= d2
    assert _banded_sq(a, b, d2) == d2
    if d2 > 0:
        assert _banded_sq(a, b, math.nextafter(d2, -_INF)) is None


def check_dtw(a, b) -> None:
    d = dtw(a, b)
    assert DTW.distance(a, b) == d
    for eps in thresholds(d):
        want = reference_dtw_distance_within(a, b, eps)
        assert DTW.distance_within(a, b, eps) == want
        assert DTW.within(a, b, eps) == (_dtw_within_value(a, b, eps) is not None)
    assert _greedy_sum(a, b) >= d
    assert _banded_sum(a, b, d) == d
    if d > 0:
        assert _banded_sum(a, b, math.nextafter(d, -_INF)) is None


def check(a, b) -> None:
    check_frechet(a, b)
    check_frechet(b, a)
    check_dtw(a, b)
    check_dtw(b, a)


#: a 2**-10 grid: exact ties and repeated points are common
grid = st.integers(min_value=0, max_value=2**10).map(lambda i: i / 2**10)
free = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64)


@given(
    st.lists(st.tuples(grid, grid), min_size=1, max_size=24),
    st.lists(st.tuples(grid, grid), min_size=1, max_size=24),
)
@settings(max_examples=300, deadline=None)
def test_equal_to_dense_on_grid_points(a, b):
    check(a, b)


@given(
    st.lists(st.tuples(free, free), min_size=1, max_size=16),
    st.lists(st.tuples(free, free), min_size=1, max_size=16),
)
@settings(max_examples=200, deadline=None)
def test_equal_to_dense_on_free_floats(a, b):
    check(a, b)


def walk(rng, n, start=(0.0, 0.0), step=0.1):
    x, y = start
    pts = [(x, y)]
    for _ in range(n - 1):
        x += rng.uniform(-step, step)
        y += rng.uniform(-step, step)
        pts.append((x, y))
    return pts


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([(116.3, 39.9, 0.001), (1e6, 1e6, 5.0)]),
)
@settings(max_examples=150, deadline=None)
def test_equal_to_dense_at_world_scale(seed, n, m, scale):
    """T-Drive-scale degrees (~116, 40) and large planar coordinates,
    where the squared differences lose the most low bits."""
    x, y, step = scale
    rng = random.Random(seed)
    a = walk(rng, n, (x, y), step)
    b = walk(rng, m, (x + rng.uniform(-3, 3) * step, y), step)
    check(a, b)


class TestCases:
    RNG = random.Random(11)
    WALK = walk(RNG, 30)
    CASES = {
        "single points": ([(0.0, 0.0)], [(3.0, 4.0)]),
        "n = 1": ([(0.5, 0.5)], walk(RNG, 9)),
        "m = 1": (walk(RNG, 9), [(0.5, 0.5)]),
        "duplicate points": (
            [(0, 0), (0, 0), (1, 1), (1, 1), (1, 1), (2, 0)],
            [(0, 0), (1, 1), (2, 0), (2, 0)],
        ),
        "stationary vs moving": ([(0.2, 0.1)] * 15, walk(RNG, 12)),
        "identical": (WALK, list(WALK)),
        "reversed": (WALK, WALK[::-1]),
        "dies on row 0": (
            [(9.0, 9.0)] + walk(RNG, 10),
            walk(RNG, 10),
        ),
        "dies inside row 0": (
            [(0.0, 0.0), (0.0, 0.05)],
            [(0.0, 0.0), (5.0, 5.0), (0.0, 0.05)],
        ),
        "long vs short": (walk(RNG, 300, step=0.02), walk(RNG, 3)),
        "parallel": (
            [(float(i), 0.0) for i in range(20)],
            [(float(i) + 0.5, 1.0) for i in range(25)],
        ),
        "integers": ([(0, 0), (3, 4), (6, 8)], [(1, 1), (4, 4)]),
        "T-Drive copies": (
            walk(RNG, 31, (116.40, 39.91), 0.001),
            walk(RNG, 33, (116.40, 39.91), 0.001),
        ),
        "1e6 coordinates": (
            walk(RNG, 20, (1e6, 1e6), 3.0),
            walk(RNG, 20, (1e6 + 2.0, 1e6), 3.0),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case(self, name):
        check(*self.CASES[name])

    def test_identical_is_zero_at_zero_eps(self):
        assert FRECHET.distance_within(self.WALK, self.WALK, 0.0) == 0.0
        assert DTW.distance_within(self.WALK, self.WALK, 0.0) == 0.0

    def test_dead_start_abandons(self):
        a, b = [(9.0, 9.0), (0.0, 0.0)], [(0.0, 0.0), (0.1, 0.1)]
        assert FRECHET.distance_within(a, b, 1.0) is None
        assert DTW.distance_within(a, b, 1.0) is None

    @pytest.mark.parametrize("kernel", [_banded_sq, _banded_sum])
    def test_empty_raises(self, kernel):
        with pytest.raises(ValueError):
            kernel([], [(0.0, 0.0)], 1.0)
        with pytest.raises(ValueError):
            kernel([(0.0, 0.0)], [], 1.0)


def test_greedy_bound_is_tight_on_lockstep_copies():
    """Near-duplicates — the thr_dense shape — are where the greedy
    coupling should already be optimal, making the band a thin strip."""
    rng = random.Random(5)
    base = walk(rng, 40, (116.4, 39.9), 0.001)
    copy = [(x + rng.uniform(-1e-5, 1e-5), y) for x, y in base]
    assert _greedy_sq(base, copy) == _frechet_within_value(base, copy, _INF)
