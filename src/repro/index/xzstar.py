"""The XZ* index: indexing plus the bijective integer encoding.

Encoding (Section IV-C).  Index spaces are numbered depth-first so that
sequences sharing a longer prefix get closer numbers, and an element's
own nine (ten, at the maximum resolution ``r``) position codes come
before its children's subtrees.  With

    N_is(l) = 13 * 4^(r - l) - 3        (Lemma 4)

the subtree of a sequence ``s = q_1 .. q_l`` starts at
``sum_i q_i * N_is(i) + 9 * (l - 1)`` and the index value is

    V(s, p) = sum_i q_i * N_is(i) + 9 * (l - 1) + (p - 1)   (Definition 5)

which reproduces the paper's worked example ``V('03', 2) = 40`` and
``V('03', 7) = 45`` for ``r = 2``.

The paper leaves length-0 sequences (trajectories spanning more than
half the space) unencoded; we place the root element's nine codes in a
tail block starting at ``13 * 4^r - 12`` so the function stays a
bijection over *every* index space.

The total number of index spaces is ``13 * 4^r - 12`` (+ 9 for the root
block); ``r <= 28`` keeps every value within a signed 64-bit integer,
matching the paper's 8-byte row-key claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import EncodingError, IndexingError
from repro.geometry.mbr import MBR
from repro.geometry.trajectory import Trajectory
from repro.index.bounds import SpaceBounds
from repro.index.position_code import (
    ALL_CODES,
    CODES_PER_ELEMENT,
    CODES_PER_MAX_ELEMENT,
    NON_MAX_CODES,
    position_code_of,
    quad_rects,
)
from repro.index.quadrant import ROOT, Element, covering_element

MAX_SUPPORTED_RESOLUTION = 28


@dataclass(frozen=True)
class IndexedTrajectory:
    """The XZ* placement of one trajectory."""

    tid: str
    element: Element
    position_code: int
    value: int


class XZStarIndex:
    """XZ* index over a world extent at a fixed maximum resolution.

    The instance is stateless apart from its parameters — the paper's
    point about static indexes (Figure 13) is precisely that placement
    is a pure function of the trajectory, so there is no structure to
    rebalance while ingesting.
    """

    def __init__(
        self,
        max_resolution: int = 16,
        bounds: Optional[SpaceBounds] = None,
    ):
        if not 1 <= max_resolution <= MAX_SUPPORTED_RESOLUTION:
            raise IndexingError(
                f"max resolution must be in 1..{MAX_SUPPORTED_RESOLUTION}, "
                f"got {max_resolution}"
            )
        self.max_resolution = max_resolution
        self.bounds = bounds if bounds is not None else SpaceBounds.whole_earth()
        # N_is per level, 1-based: _n_is[l] = 13 * 4^(r-l) - 3.
        self._n_is: Dict[int, int] = {
            level: 13 * 4 ** (max_resolution - level) - 3
            for level in range(1, max_resolution + 1)
        }
        #: first value of the root element's tail block
        self.root_block_start = 13 * 4**max_resolution - 12

    # ------------------------------------------------------------------
    # Counting (Lemmas 3-4)
    # ------------------------------------------------------------------
    def n_quadrant_sequences(self, at_level: int, prefix_level: int) -> int:
        """Lemma 3: sequences at ``at_level`` sharing a given prefix."""
        if not 0 <= prefix_level <= at_level <= self.max_resolution:
            raise IndexingError(
                f"levels out of range: prefix {prefix_level}, at {at_level}"
            )
        return 4 ** (at_level - prefix_level)

    def n_index_spaces(self, level: int) -> int:
        """Lemma 4: index spaces in the subtree of a level-``level`` sequence."""
        try:
            return self._n_is[level]
        except KeyError:
            raise IndexingError(
                f"level {level} out of range 1..{self.max_resolution}"
            ) from None

    @property
    def total_index_spaces(self) -> int:
        """All encodable index spaces, including the root tail block."""
        return self.root_block_start + CODES_PER_ELEMENT

    # ------------------------------------------------------------------
    # Encoding (Definition 5) and its inverse
    # ------------------------------------------------------------------
    def _check_code(self, element: Element, code: int) -> None:
        if element.level >= self.max_resolution:
            legal = ALL_CODES
        else:
            legal = NON_MAX_CODES
        if code not in legal:
            raise EncodingError(
                f"position code {code} illegal at level {element.level} "
                f"(max resolution {self.max_resolution})"
            )

    def value(self, element: Element, code: int) -> int:
        """``V(s, p)`` — the integer key of an index space."""
        if element.level > self.max_resolution:
            raise EncodingError(
                f"element level {element.level} exceeds max resolution "
                f"{self.max_resolution}"
            )
        self._check_code(element, code)
        if element.level == 0:
            return self.root_block_start + (code - 1)
        total = 0
        for depth, digit in enumerate(element.sequence, start=1):
            total += digit * self._n_is[depth]
        total += CODES_PER_ELEMENT * (element.level - 1)
        return total + (code - 1)

    def subtree_start(self, element: Element) -> int:
        """First value of the element's own code block (depth-first)."""
        if element.level == 0:
            return 0
        return self.value(element, 1)

    def subtree_span(self, element: Element) -> Tuple[int, int]:
        """Half-open value range covering the element's whole subtree.

        The root's span covers the main block only; its tail block is
        separate by construction.
        """
        if element.level == 0:
            return 0, self.root_block_start
        start = self.subtree_start(element)
        return start, start + self._n_is[element.level]

    def decode(self, value: int) -> Tuple[Element, int]:
        """Inverse of :meth:`value`: index value -> (element, code)."""
        if not 0 <= value < self.total_index_spaces:
            raise EncodingError(
                f"index value {value} out of range 0..{self.total_index_spaces - 1}"
            )
        if value >= self.root_block_start:
            return ROOT, value - self.root_block_start + 1
        digits: List[int] = []
        v = value
        level = 0
        while True:
            level += 1
            n = self._n_is[level]
            q = v // n
            if q > 3:  # can only happen at level 1 for the tail block,
                q = 3  # which was handled above; keep defensive clamp
            v -= q * n
            digits.append(q)
            if level == self.max_resolution:
                code = v + 1
                break
            if v < CODES_PER_ELEMENT:
                code = v + 1
                break
            v -= CODES_PER_ELEMENT
        element = Element.from_sequence(tuple(digits))
        self._check_code(element, code)
        return element, code

    # ------------------------------------------------------------------
    # Indexing a trajectory
    # ------------------------------------------------------------------
    def place(self, trajectory: Trajectory) -> Tuple[Element, int]:
        """The (element, position code) pair of a trajectory."""
        xs, ys, box = self.bounds.normalize_columns(
            *trajectory.columns, trajectory.mbr
        )
        element = covering_element(*box, self.max_resolution)
        return element, position_code_of(xs, ys, element, self.max_resolution)

    def index(self, trajectory: Trajectory) -> IndexedTrajectory:
        """Index one trajectory: its element, position code and value."""
        element, code = self.place(trajectory)
        return IndexedTrajectory(
            trajectory.tid, element, code, self.value(element, code)
        )

    # ------------------------------------------------------------------
    # World-space geometry helpers (for pruning)
    # ------------------------------------------------------------------
    def element_world_mbr(self, element: Element) -> MBR:
        """The enlarged element's rectangle in world coordinates."""
        return self._denorm(element.enlarged_mbr())

    def _denorm(self, rect: MBR) -> MBR:
        lo = self.bounds.denormalize(rect.min_x, rect.min_y)
        hi = self.bounds.denormalize(rect.max_x, rect.max_y)
        return MBR(lo[0], lo[1], hi[0], hi[1])

    # ------------------------------------------------------------------
    # Spatial range query support (mentioned in the paper's conclusion)
    # ------------------------------------------------------------------
    def range_query_ranges(
        self, window: MBR, max_visits: int = 4096
    ) -> List["IndexRange"]:
        """Scan ranges covering every index space that may hold a
        trajectory intersecting the world-space ``window``.

        A trajectory intersecting the window has at least one point in
        it; that point lies in some sub-quad of the trajectory's index
        space, so any index space whose rectangles all miss the window
        can be skipped.  Elements whose cell lies entirely inside the
        window collapse to a single whole-subtree range (the GeoMesa
        trick), which keeps traversal proportional to the window's
        perimeter rather than its area.
        """
        from repro.index.position_code import CODE_QUADS
        from repro.index.ranges import IndexRange, merge_ranges

        norm = self.bounds.normalize_mbr(window)
        values: List[int] = []
        ranges: List[IndexRange] = []
        stack = [ROOT]
        visits = 0
        while stack:
            element = stack.pop()
            visits += 1
            enlarged = element.enlarged_mbr()
            if not enlarged.intersects(norm):
                continue
            if element.level > 0 and (
                norm.contains(enlarged) or visits > max_visits
            ):
                # Every index space in the subtree may intersect the
                # window: emit one contiguous scan for the whole block.
                ranges.append(IndexRange(*self.subtree_span(element)))
                continue
            rects = quad_rects(element)
            if element.level >= self.max_resolution:
                codes: Tuple[int, ...] = ALL_CODES
            else:
                codes = NON_MAX_CODES
            for code in codes:
                if any(rects[q].intersects(norm) for q in CODE_QUADS[code]):
                    values.append(self.value(element, code))
            if element.level < self.max_resolution:
                stack.extend(element.children())
        from repro.index.ranges import merge_values_to_ranges

        return merge_ranges(merge_values_to_ranges(values) + ranges)
