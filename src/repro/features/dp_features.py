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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Sequence, Tuple

from repro.exceptions import GeometryError
from repro.features.douglas_peucker import douglas_peucker
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.geometry.segment import (
    OrientedBox,
    admit_reach,
    segment_box_sq_distance,
)

PointTuple = Tuple[float, float]


class BoxGeometry(NamedTuple):
    """What Lemmas 13-14 derive from a box list, as plain floats."""

    #: per box, its :meth:`OrientedBox.frame`
    frames: Tuple[Tuple[float, ...], ...]
    #: per box, its axis-aligned envelope (min_x, min_y, max_x, max_y)
    rects: Tuple[Tuple[float, ...], ...]
    #: per box, its four edges as (x0, y0, x1, y1)
    edges: Tuple[Tuple[Tuple[float, ...], ...], ...]
    #: largest coordinate magnitude; sizes Lemma 14's rounding slack
    scale: float


@dataclass(frozen=True)
class DPFeatures:
    """Representative features of one trajectory.

    ``rep_indexes`` are positions into the raw point array (the
    ``dp-points`` column of Table I); ``boxes`` holds one covering box
    per consecutive representative pair (the ``dp-mbrs`` column).
    A single-point trajectory has one representative point and one
    degenerate box.

    The geometry the lemmas derive from ``boxes`` (corners, envelopes,
    edges) is computed on first use and kept on the instance, so
    building or decoding features costs nothing for it, and a cached
    record carries it across queries.
    """

    rep_indexes: Tuple[int, ...]
    rep_points: Tuple[PointTuple, ...]
    boxes: Tuple[OrientedBox, ...]

    @cached_property
    def _box_geometry(self) -> BoxGeometry:
        frames, rects, edges = [], [], []
        for box in self.boxes:
            x0, y0, x1, y1, x2, y2, x3, y3 = box.corner_coords()
            frames.append(box.frame())
            rects.append(
                (
                    min(x0, x1, x2, x3),
                    min(y0, y1, y2, y3),
                    max(x0, x1, x2, x3),
                    max(y0, y1, y2, y3),
                )
            )
            edges.append(
                (
                    (x0, y0, x1, y1),
                    (x1, y1, x2, y2),
                    (x2, y2, x3, y3),
                    (x3, y3, x0, y0),
                )
            )
        scale = max((abs(c) for rect in rects for c in rect), default=0.0)
        return BoxGeometry(tuple(frames), tuple(rects), tuple(edges), scale)

    @cached_property
    def envelopes(self) -> Tuple[MBR, ...]:
        """Axis-aligned envelope per box; cheap prefilter for the exact
        rotated-frame tests (distance to an envelope lower-bounds the
        distance to its box, so envelope-based rejections are sound)."""
        return tuple(MBR(*rect) for rect in self._box_geometry.rects)

    @property
    def num_rep_points(self) -> int:
        return len(self.rep_points)

    @property
    def num_boxes(self) -> int:
        return len(self.boxes)

    # ------------------------------------------------------------------
    def point_to_boxes_distance(self, x: float, y: float) -> float:
        """``d(p, T.B)`` — distance from a point to the box union.

        The minimum over boxes; this lower-bounds the distance from the
        point to every raw point of the trajectory (Lemma 13's bound).
        Envelope distances gate the exact rotated-frame test: a box
        whose envelope is already farther than the best candidate can
        never improve the minimum.
        """
        best = math.inf
        for box, envelope in zip(self.boxes, self.envelopes):
            if envelope.distance_to_point(x, y) >= best:
                continue
            d = box.distance_to_point(x, y)
            if d < best:
                best = d
                if best == 0.0:
                    break
        return best

    def point_exceeds_boxes(self, x: float, y: float, eps: float) -> bool:
        """True iff ``d((x, y), T.B) > eps`` — the Lemma 13 decision.

        Cheaper than :meth:`point_to_boxes_distance` because any box
        within ``eps`` ends the scan, and envelopes gate the exact test.
        """
        for box, envelope in zip(self.boxes, self.envelopes):
            if envelope.distance_to_point(x, y) > eps:
                continue
            if box.distance_to_point(x, y) <= eps:
                return False
        return True

    # ------------------------------------------------------------------
    # Lemma 14.  Every distance below comes from the one closed-form
    # kernel, :func:`segment_box_sq_distance`; decisions compare it with
    # :func:`admit_reach` squared, relaxed on the admit side.
    # ------------------------------------------------------------------
    def segment_to_boxes_distance(self, a: Point, b: Point) -> float:
        """Minimum distance from segment ``a-b`` to the box union."""
        best = math.inf
        for frame in self._box_geometry.frames:
            d = segment_box_sq_distance(a[0], a[1], b[0], b[1], *frame)
            if d < best:
                best = d
                if best == 0.0:
                    break
        return math.sqrt(best)

    def box_lower_bound_against(self, other: "DPFeatures") -> float:
        """``max_{bbox in self.B} max_{edge in bbox} d(edge, other.B)``.

        Lemma 14's bound: each edge of each of our boxes carries a raw
        point, and that point is at least ``min_{p in edge} d(p,
        other.B)`` from every raw point of ``other``; the maximum over
        edges and boxes is therefore a sound lower bound on the
        similarity distance.
        """
        worst = 0.0
        for box_edges in self._box_geometry.edges:
            for x0, y0, x1, y1 in box_edges:
                d = other.segment_to_boxes_distance((x0, y0), (x1, y1))
                if d > worst:
                    worst = d
        return worst

    def exceeds_box_bound(self, other: "DPFeatures", eps: float) -> bool:
        """True as soon as Lemma 14 proves ``f(self, other) > eps``.

        Per box of ours, the other side's boxes are screened once by
        envelope gap; only the near ones meet the kernel, and a box with
        no near counterpart decides the pair outright.
        """
        _, rects, edges, scale = self._box_geometry
        o_frames, o_rects, _, o_scale = other._box_geometry
        reach = admit_reach(eps, max(scale, o_scale))
        limit = reach * reach
        for (min_x, min_y, max_x, max_y), box_edges in zip(rects, edges):
            near = [
                frame
                for frame, (o_min_x, o_min_y, o_max_x, o_max_y) in zip(
                    o_frames, o_rects
                )
                if o_min_x - max_x <= reach
                and min_x - o_max_x <= reach
                and o_min_y - max_y <= reach
                and min_y - o_max_y <= reach
            ]
            for x0, y0, x1, y1 in box_edges:
                for frame in near:
                    if (
                        segment_box_sq_distance(x0, y0, x1, y1, *frame, limit)
                        <= limit
                    ):
                        break
                else:
                    return True
        return False


#: chord-aligned covering boxes (the paper's construction)
CHORD_BOXES = "chord"
#: minimum-area oriented rectangles (rotating calipers; never looser)
MIN_AREA_BOXES = "min_area"


def extract_dp_features(
    points: Sequence[PointTuple],
    theta: float,
    box_mode: str = CHORD_BOXES,
) -> DPFeatures:
    """Compute the DP features of a raw point sequence.

    ``theta`` is the paper's "predefined distance" (default 0.01 in the
    evaluation).  Boxes are built over the *inclusive* run between two
    consecutive representative points so that the union of boxes covers
    every raw point.

    ``box_mode`` selects the covering box construction: the paper's
    chord-aligned boxes (default), or minimum-area oriented rectangles.
    Both are tight (every side touches a raw point), so Lemmas 13-14
    stay sound; minimum-area boxes are at most as large.
    """
    if not points:
        raise GeometryError("cannot extract DP features of zero points")
    if box_mode == CHORD_BOXES:
        cover = OrientedBox.cover
    elif box_mode == MIN_AREA_BOXES:
        from repro.geometry.hull import min_area_oriented_box

        cover = min_area_oriented_box
    else:
        raise GeometryError(
            f"box_mode must be {CHORD_BOXES!r} or {MIN_AREA_BOXES!r}, "
            f"got {box_mode!r}"
        )
    rep_indexes = douglas_peucker(points, theta)
    rep_points = tuple(points[i] for i in rep_indexes)
    boxes: List[OrientedBox] = []
    if len(rep_indexes) == 1:
        boxes.append(cover([points[rep_indexes[0]]]))
    else:
        for k in range(len(rep_indexes) - 1):
            lo, hi = rep_indexes[k], rep_indexes[k + 1]
            boxes.append(cover(points[lo : hi + 1]))
    return DPFeatures(
        rep_indexes=tuple(rep_indexes),
        rep_points=rep_points,
        boxes=tuple(boxes),
    )
