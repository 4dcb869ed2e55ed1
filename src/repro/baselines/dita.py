"""DITA baseline (SIGMOD 2018): trie over pivot points.

DITA indexes each trajectory by a short pivot sequence — first point,
last point, then the interior points that deviate most from their
neighbours — in a trie whose levels are grid cells.  Queries walk the
trie level by level, keeping branches whose cell is within ``eps`` of
the corresponding query pivot, then apply MBR-coverage filtering before
the exact measure.  The paper's critique ("a trajectory may appear in a
small area of its representative MBR, thus MBR coverage filtering
prunes fewer trajectories") is what the coverage filter here exhibits.

DITA relies on ordered first/last matching, so it supports Fréchet and
DTW but not Hausdorff — mirroring "DITA does not support the Hausdorff
distance" (Section VII-C).
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterable, List, Tuple

from repro.baselines.base import BaselineResult, SimilaritySearchBaseline
from repro.exceptions import QueryError
from repro.geometry.distance import point_segment_distance
from repro.geometry.mbr import MBR
from repro.geometry.trajectory import Trajectory

Cell = Tuple[int, int]


def _select_pivots(points, count: int) -> List[Tuple[float, float]]:
    """First, last, and the ``count - 2`` largest-deviation interior
    points (DITA's pivot selection heuristic)."""
    n = len(points)
    if n <= 2 or count <= 2:
        return [points[0], points[-1]][: max(1, count)]
    deviations = []
    for i in range(1, n - 1):
        deviations.append(
            (point_segment_distance(points[i], points[i - 1], points[i + 1]), i)
        )
    deviations.sort(reverse=True)
    chosen = sorted(i for _, i in deviations[: count - 2])
    return [points[0]] + [points[i] for i in chosen] + [points[-1]]


class _TrieNode:
    __slots__ = ("children", "tids")

    def __init__(self) -> None:
        self.children: Dict[Cell, "_TrieNode"] = {}
        self.tids: List[str] = []


class DITABaseline(SimilaritySearchBaseline):
    """Pivot-point trie with MBR-coverage filtering."""

    name = "DITA"
    supports_threshold = True
    supports_topk = True

    def __init__(
        self,
        measure: str = "frechet",
        cell_size: float = 0.01,
        num_pivots: int = 4,
    ):
        super().__init__(measure)
        if measure == "hausdorff":
            raise QueryError("DITA does not support the Hausdorff distance")
        if cell_size <= 0:
            raise QueryError(f"cell_size must be positive, got {cell_size}")
        self.cell_size = cell_size
        self.num_pivots = max(2, num_pivots)
        self.root = _TrieNode()
        self._by_tid: Dict[str, Trajectory] = {}
        self._pivots: Dict[str, List[Tuple[float, float]]] = {}
        self.build_seconds = 0.0
        self.node_count = 0

    # ------------------------------------------------------------------
    def _cell(self, x: float, y: float) -> Cell:
        return int(math.floor(x / self.cell_size)), int(
            math.floor(y / self.cell_size)
        )

    def build(self, trajectories: Iterable[Trajectory]) -> None:
        started = time.perf_counter()
        for trajectory in trajectories:
            self._by_tid[trajectory.tid] = trajectory
            pivots = _select_pivots(trajectory.points, self.num_pivots)
            self._pivots[trajectory.tid] = pivots
            node = self.root
            for px, py in pivots:
                cell = self._cell(px, py)
                child = node.children.get(cell)
                if child is None:
                    child = _TrieNode()
                    node.children[cell] = child
                    self.node_count += 1
                node = child
            node.tids.append(trajectory.tid)
        self.build_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    def _trie_candidates(
        self, query: Trajectory, eps: float
    ) -> Tuple[List[str], int]:
        """Walk the trie keeping branches compatible with the query.

        Level 0 must be within ``eps`` of the query's start and the last
        level within ``eps`` of its end (Lemma 12 semantics).  Interior
        pivot levels only require the branch cell to be within ``eps``
        of *some* query point — interior pivots of a similar trajectory
        match unknown interior points of the query.
        """
        visited = 1
        q_start, q_end = query.points[0], query.points[-1]
        q_mbr_ext = query.mbr.expanded(eps)
        tids: List[str] = []
        # Trajectories with fewer pivots than num_pivots terminate at
        # shallower trie nodes, so tids are collected wherever a branch
        # both survives and holds terminals (its cell is the owner's
        # *last* pivot, hence the end-point condition there).
        frontier = [(self.root, 0)]
        while frontier:
            next_frontier = []
            for node, level in frontier:
                for cell, child in node.children.items():
                    visited += 1
                    rect = MBR(
                        cell[0] * self.cell_size,
                        cell[1] * self.cell_size,
                        (cell[0] + 1) * self.cell_size,
                        (cell[1] + 1) * self.cell_size,
                    )
                    if level == 0:
                        ok = rect.distance_to_point(*q_start) <= eps
                    else:
                        ok = rect.intersects(q_mbr_ext)
                    if not ok:
                        continue
                    if child.tids and rect.distance_to_point(*q_end) <= eps:
                        tids.extend(child.tids)
                    if child.children:
                        next_frontier.append((child, level + 1))
            frontier = next_frontier
        return tids, visited

    def _coverage_filter(
        self, query: Trajectory, eps: float, tids: List[str]
    ) -> List[Trajectory]:
        """MBR coverage: candidate MBR must intersect Ext(Q.MBR, eps)."""
        window = query.mbr.expanded(eps)
        out = []
        for tid in tids:
            trajectory = self._by_tid[tid]
            if trajectory.mbr.intersects(window):
                out.append(trajectory)
        return out

    # ------------------------------------------------------------------
    def threshold_search(self, query: Trajectory, eps: float) -> BaselineResult:
        started = time.perf_counter()
        tids, visited = self._trie_candidates(query, eps)
        candidates = self._coverage_filter(query, eps, tids)
        return self._verify(query, eps, candidates, visited, started)

    def topk_search(self, query: Trajectory, k: int) -> BaselineResult:
        """Expanding-threshold top-k over the trie."""
        started = time.perf_counter()
        eps = self.cell_size
        visited_total = 0
        bound = 4 * max(
            abs(query.mbr.max_x) + 1.0, abs(query.mbr.max_y) + 1.0, 360.0
        )
        while True:
            tids, visited = self._trie_candidates(query, eps)
            visited_total += visited
            candidates = self._coverage_filter(query, eps, tids)
            if len(candidates) >= k or eps > bound:
                result = self._rank(query, k, candidates, visited_total, started)
                if (
                    len(result.ranked) == k and result.ranked[-1][0] <= eps
                ) or eps > bound:
                    return result
            eps *= 2.0
