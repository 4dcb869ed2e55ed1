"""DP features: representative points plus covering boxes (Section IV-D).

``T.P`` is the Douglas-Peucker representative point list and ``T.B``
the list of boxes covering the raw points between consecutive
representative points, chords included.  Boxes are chord-aligned
(:class:`repro.geometry.segment.OrientedBox` — "not necessarily
parallel to the coordinate axis"), which keeps them tight around long
diagonal runs.

Soundness contract used by Lemmas 13-14: every raw point of ``T`` lies
inside the union of ``T.B``, and every edge of each box carries at
least one raw point of its run (the boxes are tight).

A box is an :class:`OrientedBox` only while ingest builds it; from
there on — in :class:`DPFeatures`, in the ``dp-mbrs`` bytes and on the
read path — it is its 8-float frame, and the local filter
(:mod:`repro.core.local_filter`) runs Lemmas 13-14 on the flat tuples
of :attr:`DPFeatures.geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence, Tuple

from repro.exceptions import GeometryError
from repro.features.douglas_peucker import douglas_peucker
from repro.geometry.segment import OrientedBox, frame_corners

PointTuple = Tuple[float, float]
#: a box as the eight floats :func:`segment_box_sq_distance` takes:
#: ``(ax, ay, ux, uy, lo_a, hi_a, lo_p, hi_p)`` (:meth:`OrientedBox.frame`)
Frame = Tuple[float, ...]
#: what Lemmas 13-14 read per box: its axis-aligned envelope
#: ``(min_x, min_y, max_x, max_y)``, its frame, and its four corners
#: ``(x0, y0, ..., x3, y3)`` in :meth:`OrientedBox.corner_coords` order
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


def extract_dp_features(
    points: Sequence[PointTuple], theta: float
) -> DPFeatures:
    """Compute the DP features of a raw point sequence.

    ``theta`` is the paper's "predefined distance" (default 0.01 in the
    evaluation).  Boxes are built over the *inclusive* run between two
    consecutive representative points so that the union of boxes covers
    every raw point.
    """
    if not points:
        raise GeometryError("cannot extract DP features of zero points")
    rep_indexes = douglas_peucker(points, theta)
    rep_points = tuple(points[i] for i in rep_indexes)
    if len(rep_indexes) == 1:
        boxes = [OrientedBox.cover([points[rep_indexes[0]]])]
    else:
        boxes = [
            OrientedBox.cover(points[lo : hi + 1])
            for lo, hi in zip(rep_indexes, rep_indexes[1:])
        ]
    return DPFeatures(
        rep_indexes=tuple(rep_indexes),
        rep_points=rep_points,
        frames=tuple(box.frame() for box in boxes),
    )
