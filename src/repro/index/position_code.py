"""Position codes — the fine-grained half of the XZ* index (Section IV-B).

An enlarged element is divided evenly into four sub-quads::

        +-------+-------+
        |   b   |   d   |
        +-------+-------+
        |   a   |   c   |        a = the base quad-tree cell
        +-------+-------+

A trajectory whose MBR is covered by the element touches one of exactly
ten sub-quad combinations (the MBR's lower-left corner always lies in
quad ``a``, see the proof sketch under Figure 3(d)), and each
combination is a *position code*:

    1 = {a,b}    2 = {a,c}     3 = {a,d}      4 = {a,c,d}   5 = {a,b,c}
    6 = {a,b,c,d}  7 = {a,b,d}  8 = {b,c}     9 = {b,c,d}   10 = {a}

Code 10 only occurs at the maximum resolution: at any coarser
resolution a trajectory contained in a single sub-quad would have been
assigned a deeper enlarged element (Lemma 6's precondition).

This exact code assignment reproduces the paper's worked pruning
arithmetic: pruning every code touching quad ``c`` removes codes
``{2, 4, 5, 6, 8, 9}`` (60% of ten), pruning ``b`` and ``c`` keeps only
``{3, 10}``, and so on.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.exceptions import IndexingError
from repro.geometry.mbr import MBR
from repro.index.quadrant import Element

Quad = str  # 'a' | 'b' | 'c' | 'd'

#: position code -> the sub-quads its index space consists of
CODE_QUADS: Dict[int, FrozenSet[Quad]] = {
    1: frozenset("ab"),
    2: frozenset("ac"),
    3: frozenset("ad"),
    4: frozenset("acd"),
    5: frozenset("abc"),
    6: frozenset("abcd"),
    7: frozenset("abd"),
    8: frozenset("bc"),
    9: frozenset("bcd"),
    10: frozenset("a"),
}

#: inverse mapping, sub-quad combination -> position code
QUADS_TO_CODE: Dict[FrozenSet[Quad], int] = {v: k for k, v in CODE_QUADS.items()}

#: codes legal below the maximum resolution (all but {a})
NON_MAX_CODES: Tuple[int, ...] = tuple(sorted(set(CODE_QUADS) - {10}))
ALL_CODES: Tuple[int, ...] = tuple(sorted(CODE_QUADS))

#: number of index spaces per element: 9 below max resolution, 10 at it
CODES_PER_ELEMENT = len(NON_MAX_CODES)
CODES_PER_MAX_ELEMENT = len(ALL_CODES)


def quad_rects(element: Element) -> Dict[Quad, MBR]:
    """Unit-space rectangles of the four sub-quads of an element.

    Quads ``b``/``c``/``d`` of elements on the top/right border overhang
    the unit square, exactly like the enlarged element itself.
    """
    w = element.cell_width
    x0, y0 = element.ix * w, element.iy * w
    return {
        "a": MBR(x0, y0, x0 + w, y0 + w),
        "b": MBR(x0, y0 + w, x0 + w, y0 + 2 * w),
        "c": MBR(x0 + w, y0, x0 + 2 * w, y0 + w),
        "d": MBR(x0 + w, y0 + w, x0 + 2 * w, y0 + 2 * w),
    }


#: sub-quad -> its bit in a touched-quads mask
_QUAD_BIT: Dict[Quad, int] = {"a": 1, "b": 2, "c": 4, "d": 8}

#: touched-quads mask -> position code, 0 for an illegal combination
_MASK_TO_CODE: Tuple[int, ...] = tuple(
    QUADS_TO_CODE.get(
        frozenset(q for q, bit in _QUAD_BIT.items() if mask & bit), 0
    )
    for mask in range(16)
)


def position_code_of(
    xs: Sequence[float],
    ys: Sequence[float],
    element: Element,
    max_resolution: int,
) -> int:
    """The position code of a trajectory inside its enlarged element.

    ``xs`` and ``ys`` are the trajectory's coordinate columns normalised
    to unit space, and ``element`` must be its smallest enlarged element
    — under those conditions the touched combination is always one of
    the ten legal codes.

    A point is in a right quad (``c``/``d``) when ``x > x0 + w`` and in
    a top quad (``b``/``d``) when ``y > y0 + w``: points exactly on the
    internal boundary belong to the lower/left quad.  That convention
    matches the *closed* fit test of Lemma 2 (``covering_element``),
    which is what guarantees that a trajectory confined to quad ``a``
    below the maximum resolution is impossible — including for points
    clamped onto the space boundary (e.g. a stationary ping at latitude
    exactly +90).  The scan stops once all four quads are touched.
    """
    w = element.cell_width
    right = element.ix * w + w
    top = element.iy * w + w
    mask = 0
    for x, y in zip(xs, ys):
        if x > right:
            mask |= 8 if y > top else 4
        else:
            mask |= 2 if y > top else 1
        if mask == 15:
            break
    code = _MASK_TO_CODE[mask]
    if not code:
        quads = [q for q, bit in _QUAD_BIT.items() if mask & bit]
        raise IndexingError(
            f"trajectory touches illegal sub-quad combination "
            f"{quads} of element {element.sequence_str!r}; "
            "was the element computed with covering_element?"
        )
    if code == 10 and element.level < max_resolution:
        raise IndexingError(
            "single-quad combination {a} below the maximum resolution; "
            "the enlarged element is not the smallest one"
        )
    return code


def codes_for_element(element: Element, max_resolution: int) -> Tuple[int, ...]:
    """Legal position codes for an element: 9 normally, 10 at max depth."""
    if element.level >= max_resolution:
        return ALL_CODES
    return NON_MAX_CODES


def codes_avoiding(
    far_quads: Iterable[Quad], element: Element, max_resolution: int
) -> List[int]:
    """Codes whose index space avoids every quad in ``far_quads``.

    This is Lemma 10: if a sub-quad is provably farther than ``eps``
    from the query, no trajectory stored under a code containing it can
    be an answer, so only the avoiding codes survive.
    """
    far = frozenset(far_quads)
    return [
        code
        for code in codes_for_element(element, max_resolution)
        if not (CODE_QUADS[code] & far)
    ]


def index_space_rects(element: Element, code: int) -> List[MBR]:
    """The rectangles making up the index space ``(element, code)``."""
    try:
        quads = CODE_QUADS[code]
    except KeyError:
        raise IndexingError(f"position code {code} out of range 1..10") from None
    rects = quad_rects(element)
    return [rects[q] for q in sorted(quads)]
