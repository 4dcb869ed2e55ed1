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

import numpy as np

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
    mbr: MBR

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
        mbr=MBR.of_points(points),
    )


# ----------------------------------------------------------------------
# Vectorised kernels (the batch filter path).
#
# Oriented boxes travel as packed parameter rows in the codec's 8-float
# layout — (anchor.x, anchor.y, axis.x, axis.y, length, lo_along,
# lo_perp, hi_perp) — so a whole candidate batch's boxes live in one
# ``(b, 8)`` float64 array.  Each kernel replays the scalar method's
# arithmetic operation-for-operation, which is what keeps the batch
# filter's accept/reject decisions identical to the reference
# implementation (pinned by a property test).
# ----------------------------------------------------------------------

def pack_boxes(boxes: Sequence[OrientedBox]) -> np.ndarray:
    """Boxes as an ``(b, 8)`` parameter array in codec order."""
    out = np.empty((len(boxes), 8), dtype=np.float64)
    for i, box in enumerate(boxes):
        out[i] = (
            box.anchor.x,
            box.anchor.y,
            box.axis[0],
            box.axis[1],
            box.length,
            box.lo_along,
            box.lo_perp,
            box.hi_perp,
        )
    return out


def pack_rects(rects: Sequence[MBR]) -> np.ndarray:
    """MBRs as an ``(b, 4)`` array of (min_x, min_y, max_x, max_y)."""
    out = np.empty((len(rects), 4), dtype=np.float64)
    for i, r in enumerate(rects):
        out[i] = (r.min_x, r.min_y, r.max_x, r.max_y)
    return out


def oriented_box_envelopes(params: np.ndarray) -> np.ndarray:
    """Axis-aligned envelopes of packed boxes, ``(b, 4)``.

    Computes the same four corners as :meth:`OrientedBox.corners` and
    takes their min/max, so the values match ``box.mbr()`` exactly.
    """
    if len(params) == 0:
        return np.empty((0, 4), dtype=np.float64)
    ax, ay = params[:, 0:1], params[:, 1:2]
    ux, uy = params[:, 2:3], params[:, 3:4]
    length, lo_a = params[:, 4], params[:, 5]
    lo_p, hi_p = params[:, 6], params[:, 7]
    along = np.stack([lo_a, length, length, lo_a], axis=1)
    perp = np.stack([lo_p, lo_p, hi_p, hi_p], axis=1)
    cx = ax + along * ux - perp * uy
    cy = ay + along * uy + perp * ux
    out = np.empty((len(params), 4), dtype=np.float64)
    out[:, 0] = cx.min(axis=1)
    out[:, 1] = cy.min(axis=1)
    out[:, 2] = cx.max(axis=1)
    out[:, 3] = cy.max(axis=1)
    return out


def point_box_distance_matrix(
    points: np.ndarray, params: np.ndarray
) -> np.ndarray:
    """Pairwise point-to-oriented-box distances, ``(m, b)``.

    :meth:`OrientedBox.distance_to_point` vectorised: same local-frame
    transform, same clamp sequence, same hypot.
    """
    ax, ay = params[:, 0], params[:, 1]
    ux, uy = params[:, 2], params[:, 3]
    length, lo_a = params[:, 4], params[:, 5]
    lo_p, hi_p = params[:, 6], params[:, 7]
    rx = points[:, 0][:, None] - ax[None, :]
    ry = points[:, 1][:, None] - ay[None, :]
    along = rx * ux + ry * uy
    perp = ry * ux - rx * uy
    da = np.maximum(np.maximum(lo_a - along, 0.0), along - length)
    dp = np.maximum(np.maximum(lo_p - perp, 0.0), perp - hi_p)
    return np.hypot(da, dp)


def point_rect_distance_matrix(
    points: np.ndarray, rects: np.ndarray
) -> np.ndarray:
    """Pairwise point-to-rectangle distances, ``(m, b)``.

    :meth:`MBR.distance_to_point` vectorised over packed rect rows.
    """
    px = points[:, 0][:, None]
    py = points[:, 1][:, None]
    dx = np.maximum(np.maximum(rects[None, :, 0] - px, 0.0), px - rects[None, :, 2])
    dy = np.maximum(np.maximum(rects[None, :, 1] - py, 0.0), py - rects[None, :, 3])
    return np.hypot(dx, dy)


def points_within_box_union(
    points: np.ndarray,
    params: np.ndarray,
    envelopes: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Per (point, box): is the point within ``eps`` of the box, as
    :meth:`DPFeatures.point_exceeds_boxes` decides it?

    The scalar method skips the exact rotated-frame test for boxes whose
    envelope is already beyond ``eps``; a box therefore only counts as
    "within" when both its envelope *and* the box itself are within
    ``eps``.  Replaying that conjunction — instead of the box distance
    alone — keeps the vectorised decision identical even when rounding
    makes an envelope distance land on the far side of ``eps``.
    """
    env_d = point_rect_distance_matrix(points, envelopes)
    box_d = point_box_distance_matrix(points, params)
    return (env_d <= eps) & (box_d <= eps)
