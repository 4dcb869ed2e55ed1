"""Quadrant sequences and enlarged elements (Section IV-B).

An *element* is a node of the implicit quad tree, identified by its
resolution ``level`` and its cell coordinates ``(ix, iy)`` with
``0 <= ix, iy < 2^level``.  The equivalent *quadrant sequence* is the
digit string read root-to-leaf; digits follow the reversed-Z order

    0 = (left, bottom)   1 = (left, top)
    2 = (right, bottom)  3 = (right, top)

so digit ``q`` contributes bit ``q >> 1`` to ``ix`` and bit ``q & 1`` to
``iy``.  The *enlarged element* doubles the cell toward the upper-right
corner (Figure 3(c)).

``covering_element`` implements Lemmas 1-2 on a box's four floats
(``smallest_enlarged_element`` takes an :class:`MBR`): the smallest
enlarged element covering a box is anchored at the cell containing the
box's lower-left corner, at resolution ``l`` or ``l + 1`` where
``l = floor(log2(1 / max(width, height)))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.exceptions import IndexingError
from repro.geometry.mbr import MBR


@dataclass(frozen=True, order=True)
class Element:
    """A quad-tree cell identified by (level, ix, iy), all in unit space."""

    level: int
    ix: int
    iy: int

    def __post_init__(self) -> None:
        side = 1 << self.level
        if self.level < 0:
            raise IndexingError(f"negative level {self.level}")
        if not (0 <= self.ix < side and 0 <= self.iy < side):
            raise IndexingError(
                f"cell ({self.ix}, {self.iy}) out of range for level {self.level}"
            )

    # ------------------------------------------------------------------
    # Sequence <-> cell conversions
    # ------------------------------------------------------------------
    @staticmethod
    def from_sequence(digits: Tuple[int, ...]) -> "Element":
        """Build an element from its quadrant-sequence digits."""
        ix = iy = 0
        for q in digits:
            if not 0 <= q <= 3:
                raise IndexingError(f"quadrant digit {q} out of range 0..3")
            ix = (ix << 1) | (q >> 1)
            iy = (iy << 1) | (q & 1)
        return Element(len(digits), ix, iy)

    @property
    def sequence(self) -> Tuple[int, ...]:
        """The quadrant-sequence digits of this element (root-first)."""
        digits: List[int] = []
        for bit in range(self.level - 1, -1, -1):
            dx = (self.ix >> bit) & 1
            dy = (self.iy >> bit) & 1
            digits.append((dx << 1) | dy)
        return tuple(digits)

    @property
    def sequence_str(self) -> str:
        """The sequence as a digit string, e.g. ``'03'``."""
        return "".join(str(q) for q in self.sequence)

    @staticmethod
    def from_sequence_str(s: str) -> "Element":
        return Element.from_sequence(tuple(int(ch) for ch in s))

    # ------------------------------------------------------------------
    # Geometry (unit space)
    # ------------------------------------------------------------------
    @property
    def cell_width(self) -> float:
        return 0.5**self.level

    def cell_mbr(self) -> MBR:
        """The quad-tree cell itself."""
        w = self.cell_width
        return MBR(self.ix * w, self.iy * w, (self.ix + 1) * w, (self.iy + 1) * w)

    def enlarged_mbr(self) -> MBR:
        """The enlarged element: the cell doubled toward the upper-right.

        May extend past the unit square on the top/right — XZ-Ordering
        allows that; the overhang simply never contains data.
        """
        w = self.cell_width
        return MBR(self.ix * w, self.iy * w, (self.ix + 2) * w, (self.iy + 2) * w)

    # ------------------------------------------------------------------
    # Tree navigation
    # ------------------------------------------------------------------
    def children(self) -> List["Element"]:
        """The four children in quadrant-digit order (0, 1, 2, 3)."""
        lv, bx, by = self.level + 1, self.ix << 1, self.iy << 1
        return [
            Element(lv, bx, by),
            Element(lv, bx, by + 1),
            Element(lv, bx + 1, by),
            Element(lv, bx + 1, by + 1),
        ]

    def child(self, q: int) -> "Element":
        if not 0 <= q <= 3:
            raise IndexingError(f"quadrant digit {q} out of range 0..3")
        return Element(self.level + 1, (self.ix << 1) | (q >> 1), (self.iy << 1) | (q & 1))

    def parent(self) -> "Element":
        if self.level == 0:
            raise IndexingError("the root element has no parent")
        return Element(self.level - 1, self.ix >> 1, self.iy >> 1)

    def ancestors(self) -> Iterator["Element"]:
        """Proper ancestors, nearest first, ending at the root."""
        node = self
        while node.level > 0:
            node = node.parent()
            yield node

    def is_ancestor_of(self, other: "Element") -> bool:
        if other.level < self.level:
            return False
        shift = other.level - self.level
        return (other.ix >> shift) == self.ix and (other.iy >> shift) == self.iy


ROOT = Element(0, 0, 0)


def _cell_coordinate(value: float, level: int) -> int:
    """The cell index along one axis containing ``value`` at ``level``.

    Values exactly at the top/right boundary (1.0) clamp into the last
    cell so boundary points always belong to a real cell.
    """
    side = 1 << level
    idx = int(value * side)
    if idx >= side:
        idx = side - 1
    if idx < 0:
        idx = 0
    return idx


def _fits(
    min_x: float, min_y: float, max_x: float, max_y: float, level: int
) -> bool:
    """True if the enlarged element at ``level`` anchored at the cell
    containing the box's lower-left corner covers the box (Lemma 2)."""
    w = 0.5**level
    cx = _cell_coordinate(min_x, level)
    cy = _cell_coordinate(min_y, level)
    return max_x <= (cx + 2) * w and max_y <= (cy + 2) * w


def covering_element(
    min_x: float,
    min_y: float,
    max_x: float,
    max_y: float,
    max_resolution: int,
) -> Element:
    """The smallest enlarged element covering the unit-space box
    ``[min_x, max_x] x [min_y, max_y]`` (Lemmas 1-2).

    Degenerate boxes (stationary trajectories) land at the maximum
    resolution, which is what produces the paper's Figure 12(a) peak.
    """
    if max_resolution < 1:
        raise IndexingError(f"max resolution must be >= 1, got {max_resolution}")
    max_dim = max(max_x - min_x, max_y - min_y)
    if max_dim <= 0.0:
        level = max_resolution
    else:
        # Largest l with 2^-l >= max_dim; at that resolution the fit is
        # guaranteed, and Lemma 1 says only l and l + 1 are possible.
        level = min(max_resolution, max(0, int(math.floor(-math.log2(max_dim)))))
        # Guard against floating-point log edge cases in both directions;
        # mathematically only l and l + 1 are possible (Lemma 1), so each
        # loop runs at most a step or two.
        while level > 0 and not _fits(min_x, min_y, max_x, max_y, level):
            level -= 1
        while level < max_resolution and _fits(
            min_x, min_y, max_x, max_y, level + 1
        ):
            level += 1
    cx = _cell_coordinate(min_x, level)
    cy = _cell_coordinate(min_y, level)
    return Element(level, cx, cy)


def smallest_enlarged_element(mbr: MBR, max_resolution: int) -> Element:
    """:func:`covering_element` of a normalised :class:`MBR`."""
    return covering_element(
        mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y, max_resolution
    )
