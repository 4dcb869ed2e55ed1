"""DP features: representative points plus covering boxes (Section IV-D).

``T.P`` is the Douglas-Peucker representative point list and ``T.B``
the list of boxes covering the raw points between consecutive
representative points, chords included.  Boxes are chord-aligned —
"not necessarily parallel to the coordinate axis" — which keeps them
tight around long diagonal runs.

Soundness contract used by Lemmas 13-14: every raw point of ``T`` lies
inside the union of ``T.B``, and every edge of each box carries at
least one raw point of its run (the boxes are tight).

A box is its 8-float :data:`Frame` everywhere: :func:`chord_frame`
builds it from the coordinate columns at ingest, it is what
:class:`DPFeatures` holds and the ``dp-mbrs`` bytes store, and the local
filter (:mod:`repro.core.local_filter`) runs Lemmas 13-14 on the flat
tuples of :attr:`DPFeatures.geometry`.  No box object exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence, Tuple

from repro.exceptions import GeometryError
from repro.features.douglas_peucker import douglas_peucker_mask
from repro.geometry.segment import frame_corners
from repro.geometry.trajectory import columns_of

PointTuple = Tuple[float, float]
#: a box as the eight floats :func:`segment_box_sq_distance` takes:
#: anchor ``(ax, ay)``, unit axis ``(ux, uy)``, then the extents
#: ``[lo_a, hi_a]`` along the axis and ``[lo_p, hi_p]`` across it
Frame = Tuple[float, ...]
#: what Lemmas 13-14 read per box: its axis-aligned envelope
#: ``(min_x, min_y, max_x, max_y)``, its frame, and its four corners
#: ``(x0, y0, ..., x3, y3)`` in :func:`frame_corners` order
LemmaBox = Tuple[Tuple[float, ...], Frame, Tuple[float, ...]]


class BoxGeometry(NamedTuple):
    """What Lemmas 13-14 derive from a box list, as plain floats."""

    boxes: Tuple[LemmaBox, ...]
    #: largest coordinate magnitude; sizes the lemmas' rounding slack
    scale: float


@dataclass(frozen=True)
class DPFeatures:
    """Representative features of one trajectory.

    ``rep_indexes`` are positions into the raw point array (the
    ``dp-points`` column of Table I); ``frames`` holds one covering box
    per consecutive representative pair (the ``dp-mbrs`` column), each
    as its 8-float :data:`Frame`.  A single-point trajectory has one
    representative point and one degenerate box.

    :attr:`geometry` — per box, envelope, frame and corners — is
    computed on first use and kept on the instance, so building or
    decoding features costs nothing for it, and a cached record carries
    it across queries.  No box object is built on the read path.
    """

    rep_indexes: Tuple[int, ...]
    rep_points: Tuple[PointTuple, ...]
    frames: Tuple[Frame, ...]

    @cached_property
    def geometry(self) -> BoxGeometry:
        boxes = []
        scale = 0.0
        for frame in self.frames:
            corners = frame_corners(*frame)
            xs, ys = sorted(corners[0::2]), sorted(corners[1::2])
            # max |c| over the envelope, as min <= max
            scale = max(scale, -xs[0], xs[3], -ys[0], ys[3])
            boxes.append(((xs[0], ys[0], xs[3], ys[3]), frame, corners))
        return BoxGeometry(tuple(boxes), scale)

    @property
    def num_rep_points(self) -> int:
        return len(self.rep_points)

    @property
    def num_boxes(self) -> int:
        return len(self.frames)


def chord_frame(
    xs: Sequence[float], ys: Sequence[float], lo: int, hi: int
) -> Frame:
    """The smallest chord-aligned box covering points ``lo..hi``
    (inclusive) of the columns, as its :data:`Frame`.

    The chord runs from point ``lo`` (the anchor) to point ``hi``; when
    the two coincide the frame degenerates to axis-aligned at the
    anchor.  The along extent always reaches the chord's end.
    """
    ax, ay = xs[lo], ys[lo]
    vx, vy = xs[hi] - ax, ys[hi] - ay
    norm = math.hypot(vx, vy)
    if norm == 0.0:
        ux, uy = 1.0, 0.0
    else:
        ux, uy = vx / norm, vy / norm
    lo_a = hi_a = lo_p = hi_p = 0.0
    for i in range(lo, hi + 1):
        rx = xs[i] - ax
        ry = ys[i] - ay
        along = rx * ux + ry * uy
        perp = -rx * uy + ry * ux
        # lo <= 0 <= hi, so at most one of each pair moves
        if along < lo_a:
            lo_a = along
        elif along > hi_a:
            hi_a = along
        if perp < lo_p:
            lo_p = perp
        elif perp > hi_p:
            hi_p = perp
    if norm > hi_a:
        hi_a = norm
    return (ax, ay, ux, uy, lo_a, hi_a, lo_p, hi_p)


def extract_dp_features(points, theta: float) -> DPFeatures:
    """Compute the DP features of a raw point sequence, or of anything
    carrying coordinate ``columns`` (a :class:`Trajectory`).

    ``theta`` is the paper's "predefined distance" (default 0.01 in the
    evaluation).  Boxes are built over the *inclusive* run between two
    consecutive representative points so that the union of boxes covers
    every raw point.
    """
    xs, ys = columns_of(points)
    if not xs:
        raise GeometryError("cannot extract DP features of zero points")
    mask = douglas_peucker_mask(xs, ys, theta)
    rep_indexes = tuple([i for i, kept in enumerate(mask) if kept])
    if len(rep_indexes) == 1:
        frames = (chord_frame(xs, ys, 0, 0),)
    else:
        frames = tuple([
            chord_frame(xs, ys, lo, hi)
            for lo, hi in zip(rep_indexes, rep_indexes[1:])
        ])
    return DPFeatures(
        rep_indexes=rep_indexes,
        rep_points=tuple([(xs[i], ys[i]) for i in rep_indexes]),
        frames=frames,
    )
