"""Line segments and the chord-aligned box geometry of DP features.

The paper's local filtering covers the raw points between two
consecutive Douglas-Peucker representative points with a bounding box
that "is not necessarily parallel to the coordinate axis"
(Section IV-D): a rectangle aligned with the chord between the two
representative points.  Such a box is an 8-float *frame* —
``(ax, ay, ux, uy, lo_a, hi_a, lo_p, hi_p)``: anchor, unit axis, and the
extents along and across the axis — built by
:func:`repro.features.dp_features.chord_frame`.

:func:`segment_box_sq_distance` is the one Lemma 14 geometry kernel:
in the box's own frame the box is an axis-aligned rectangle, so the
distance from a segment to it has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.geometry.mbr import MBR
from repro.geometry.point import Point


@dataclass(frozen=True)
class Segment:
    """A directed line segment from ``start`` to ``end``."""

    start: Point
    end: Point

    @property
    def length(self) -> float:
        return self.start.distance(self.end)

    def mbr(self) -> MBR:
        return MBR.of_points([self.start, self.end])

    def distance_to_point(self, p: Point) -> float:
        """Minimum distance from ``p`` to the segment."""
        from repro.geometry.distance import point_segment_distance

        return point_segment_distance(p, self.start, self.end)


def frame_corners(
    ax: float,
    ay: float,
    ux: float,
    uy: float,
    lo_a: float,
    hi_a: float,
    lo_p: float,
    hi_p: float,
) -> Tuple[float, ...]:
    """The four corners of the box with this frame as flat world
    coordinates ``(x0, y0, ..., x3, y3)``, counter-clockwise in the box
    frame from ``(lo_a, lo_p)``."""
    lo_ux, lo_uy = lo_a * ux, lo_a * uy
    hi_ux, hi_uy = hi_a * ux, hi_a * uy
    lp_ux, lp_uy = lo_p * ux, lo_p * uy
    hp_ux, hp_uy = hi_p * ux, hi_p * uy
    return (
        ax + lo_ux - lp_uy,
        ay + lo_uy + lp_ux,
        ax + hi_ux - lp_uy,
        ay + hi_uy + lp_ux,
        ax + hi_ux - hp_uy,
        ay + hi_uy + hp_ux,
        ax + lo_ux - hp_uy,
        ay + lo_uy + hp_ux,
    )


def admit_reach(eps: float, scale: float) -> float:
    """The distance a Lemma 14 bound is compared against: just above
    ``eps``.

    Relative slack for the squared-domain arithmetic (as
    ``measures.frechet._relaxed_sq``) plus absolute slack for the
    rounding of world coordinates of magnitude ``scale`` on their way
    through the corner and local-frame transforms.  The relaxation is on
    the *admit* side only, so rounding can keep a candidate for exact
    refinement but never drop an answer.
    """
    return eps * (1.0 + 1e-12) + 1e-12 * scale


def segment_box_sq_distance(
    x0: float,
    y0: float,
    x1: float,
    y1: float,
    ax: float,
    ay: float,
    ux: float,
    uy: float,
    lo_a: float,
    hi_a: float,
    lo_p: float,
    hi_p: float,
    limit: Optional[float] = None,
) -> float:
    """Squared distance from segment ``(x0, y0)-(x1, y1)`` to the
    oriented box with anchor ``(ax, ay)``, unit axis ``(ux, uy)`` and
    local extents ``[lo_a, hi_a] x [lo_p, hi_p]`` — in O(1).

    Without ``limit`` the result is exact.  With ``limit`` the function
    returns as soon as the result is known to lie on one side of it,
    and the value is only guaranteed to compare against ``limit`` the
    way the exact squared distance does.
    """
    # Into the box frame: two dot products per endpoint.
    rx, ry = x0 - ax, y0 - ay
    a0, p0 = rx * ux + ry * uy, ry * ux - rx * uy
    rx, ry = x1 - ax, y1 - ay
    a1, p1 = rx * ux + ry * uy, ry * ux - rx * uy

    # 1. Gap between the segment's local bounding intervals and the
    #    rectangle's: a lower bound on the distance.
    if a0 < a1:
        ga = lo_a - a1 if a1 < lo_a else (a0 - hi_a if a0 > hi_a else 0.0)
    else:
        ga = lo_a - a0 if a0 < lo_a else (a1 - hi_a if a1 > hi_a else 0.0)
    if p0 < p1:
        gp = lo_p - p1 if p1 < lo_p else (p0 - hi_p if p0 > hi_p else 0.0)
    else:
        gp = lo_p - p0 if p0 < lo_p else (p1 - hi_p if p1 > hi_p else 0.0)
    gap = ga * ga + gp * gp
    if limit is not None and gap > limit:
        return gap

    # 2. The nearer endpoint's distance to the rectangle: an upper bound.
    da = lo_a - a0 if a0 < lo_a else (a0 - hi_a if a0 > hi_a else 0.0)
    dp = lo_p - p0 if p0 < lo_p else (p0 - hi_p if p0 > hi_p else 0.0)
    best = da * da + dp * dp
    da = lo_a - a1 if a1 < lo_a else (a1 - hi_a if a1 > hi_a else 0.0)
    dp = lo_p - p1 if p1 < lo_p else (p1 - hi_p if p1 > hi_p else 0.0)
    if da * da + dp * dp < best:
        best = da * da + dp * dp
    if best == 0.0 or (limit is not None and best <= limit):
        return best

    da, dp = a1 - a0, p1 - p0
    # 3. Both endpoints outside: does the segment cross the rectangle?
    #    Clip its parameter range against the two slabs (Liang-Barsky);
    #    only possible when the bounding intervals overlap.
    if ga == 0.0 and gp == 0.0:
        t0, t1 = 0.0, 1.0
        if da != 0.0:
            ta, tb = (lo_a - a0) / da, (hi_a - a0) / da
            t0, t1 = (ta, tb) if ta < tb else (tb, ta)
            if t0 < 0.0:
                t0 = 0.0
            if t1 > 1.0:
                t1 = 1.0
        if dp != 0.0:
            ta, tb = (lo_p - p0) / dp, (hi_p - p0) / dp
            if ta > tb:
                ta, tb = tb, ta
            if ta > t0:
                t0 = ta
            if tb < t1:
                t1 = tb
        if t0 <= t1:
            return 0.0

    # 4. Disjoint: the minimum is at an endpoint (step 2) or at a
    #    rectangle corner whose projection falls strictly inside the
    #    segment, where it is the perpendicular distance.
    seg_sq = da * da + dp * dp
    for ca, cp in ((lo_a, lo_p), (hi_a, lo_p), (hi_a, hi_p), (lo_a, hi_p)):
        ra, rp = ca - a0, cp - p0
        if 0.0 < ra * da + rp * dp < seg_sq:
            cross = ra * dp - rp * da
            d = cross * cross / seg_sq
            if d < best:
                best = d
    return best
