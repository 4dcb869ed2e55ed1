"""XZ-Ordering (XZ2) — the state-of-the-art baseline index.

This is the index GeoMesa provides and JUST / TrajMesa build on
(Section VIII): a trajectory is represented by its smallest enlarged
element alone, with **no** position code.  Keeping the same depth-first
numbering style as :mod:`repro.index.xzstar` makes the two indexes
directly comparable on identical substrate, which is how the paper's
I/O-reduction numbers (66.4% in Section VI, 83.6% in theory) are
measured.

Subtree sizes: a sequence of length ``l`` owns one value plus four child
subtrees, so ``C(l) = (4^(r - l + 1) - 1) / 3`` and

    V_xz2(s) = sum_i q_i * C(i) + (l - 1).

The root element (length-0 sequence) again gets a tail-block value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import EncodingError, IndexingError
from repro.geometry.mbr import MBR
from repro.geometry.trajectory import Trajectory
from repro.index.bounds import SpaceBounds
from repro.index.quadrant import ROOT, Element, covering_element
from repro.index.ranges import IndexRange, merge_ranges, merge_values_to_ranges

MAX_SUPPORTED_RESOLUTION = 30


@dataclass(frozen=True)
class XZ2IndexedTrajectory:
    """The XZ2 placement of one trajectory."""

    tid: str
    element: Element
    value: int


class XZ2Index:
    """Plain XZ-Ordering over a world extent at fixed maximum resolution."""

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
        # _subtree[l] = number of sequences in the subtree of a length-l
        # sequence, itself included: (4^(r-l+1) - 1) / 3.
        self._subtree: Dict[int, int] = {
            level: (4 ** (max_resolution - level + 1) - 1) // 3
            for level in range(1, max_resolution + 1)
        }
        self.root_block_start = 4 * self._subtree[1]

    @property
    def total_elements(self) -> int:
        return self.root_block_start + 1

    # ------------------------------------------------------------------
    def value(self, element: Element) -> int:
        """The integer key of an element's sequence."""
        if element.level > self.max_resolution:
            raise EncodingError(
                f"element level {element.level} exceeds max resolution "
                f"{self.max_resolution}"
            )
        if element.level == 0:
            return self.root_block_start
        total = 0
        for depth, digit in enumerate(element.sequence, start=1):
            total += digit * self._subtree[depth]
        return total + (element.level - 1)

    def subtree_span(self, element: Element) -> Tuple[int, int]:
        """Half-open value range of the element's whole subtree."""
        if element.level == 0:
            return 0, self.root_block_start
        start = self.value(element)
        return start, start + self._subtree[element.level]

    def decode(self, value: int) -> Element:
        """Inverse of :meth:`value`."""
        if not 0 <= value <= self.root_block_start:
            raise EncodingError(
                f"index value {value} out of range 0..{self.root_block_start}"
            )
        if value == self.root_block_start:
            return ROOT
        digits: List[int] = []
        v = value
        level = 0
        while True:
            level += 1
            n = self._subtree[level]
            q = min(3, v // n)
            v -= q * n
            digits.append(q)
            if v == 0:
                break
            v -= 1  # skip the element's own value before descending
        return Element.from_sequence(tuple(digits))

    # ------------------------------------------------------------------
    def place(self, trajectory: Trajectory) -> Element:
        """The smallest enlarged element of a trajectory (Lemmas 1-2)."""
        box = self.bounds.unit_box(trajectory.mbr)
        return covering_element(*box, self.max_resolution)

    def index(self, trajectory: Trajectory) -> XZ2IndexedTrajectory:
        element = self.place(trajectory)
        return XZ2IndexedTrajectory(trajectory.tid, element, self.value(element))

    def element_world_mbr(self, element: Element) -> MBR:
        """The enlarged element's rectangle in world coordinates."""
        lo = self.bounds.denormalize(*element.enlarged_mbr().lower_left)
        hi = self.bounds.denormalize(*element.enlarged_mbr().upper_right)
        return MBR(lo[0], lo[1], hi[0], hi[1])

    # ------------------------------------------------------------------
    def window_ranges(
        self, window: MBR, max_visits: int = 4096
    ) -> List[IndexRange]:
        """Scan ranges of every element whose enlarged element intersects
        the world-space ``window``.

        This is the entire pruning power XZ-Ordering offers: it cannot
        reason about resolution bands or trajectory shape, which is what
        the paper's global-pruning comparison exploits.

        ``max_visits`` caps planner work the way GeoMesa's bounded
        recursion does: past the budget, remaining frontier elements
        collapse into whole-subtree ranges (a superset — extra rows are
        discarded by the client-side filters).
        """
        norm = self.bounds.normalize_mbr(window)
        values: List[int] = [self.root_block_start]  # root EE covers all
        ranges: List[IndexRange] = []
        stack = [e for e in ROOT.children()]
        visits = 0
        while stack:
            element = stack.pop()
            visits += 1
            enlarged = element.enlarged_mbr()
            if not enlarged.intersects(norm):
                continue
            if norm.contains(enlarged) or visits > max_visits:
                ranges.append(IndexRange(*self.subtree_span(element)))
                continue
            values.append(self.value(element))
            if element.level < self.max_resolution:
                stack.extend(element.children())
        return merge_ranges(merge_values_to_ranges(values) + ranges)
