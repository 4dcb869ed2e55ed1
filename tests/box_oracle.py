"""The object-based Lemma 13/14 path, kept as the ``==`` oracle.

The local filter runs Lemmas 13-14 on flat float tuples
(``points_exceed_boxes`` / ``edges_exceed_boxes`` in
``repro.core.local_filter``).  The implementation they replaced —
``OrientedBox`` and ``MBR`` objects per box, one method call per test —
lives on here, over the same :class:`DPFeatures` frames:

* :func:`boxes` / :func:`envelopes` rebuild the objects exactly as the
  row decoder and ``DPFeatures`` used to;
* :func:`point_exceeds_boxes`, :func:`exceeds_box_bound`,
  :func:`point_to_boxes_distance`, :func:`segment_to_boxes_distance`
  and :func:`box_lower_bound_against` are the old methods;
* :func:`oracle_tail` is ``LocalFilter.tail`` with Lemmas 13-14
  decided by those methods, and :func:`oracle_passes` is
  ``LocalFilter.passes`` on it; patch both over ``LocalFilter`` to run
  a whole query on the oracle (top-k calls ``passes``, threshold search
  ``head`` and then ``tail``).
"""

from __future__ import annotations

import math

from repro.core.local_filter import LocalFilter
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.geometry.segment import admit_reach, segment_box_sq_distance
from tests.write_path_oracle import OrientedBox


def boxes(features):
    """The boxes as :class:`OrientedBox` objects, as the row decoder
    built them from the ``dp-mbrs`` column."""
    return tuple(
        OrientedBox(Point(ax, ay), (ux, uy), hi_a, lo_a, lo_p, hi_p)
        for ax, ay, ux, uy, lo_a, hi_a, lo_p, hi_p in features.frames
    )


def _rect(box):
    x0, y0, x1, y1, x2, y2, x3, y3 = box.corner_coords()
    return (
        min(x0, x1, x2, x3),
        min(y0, y1, y2, y3),
        max(x0, x1, x2, x3),
        max(y0, y1, y2, y3),
    )


def envelopes(features):
    """Axis-aligned envelope per box, from its corners."""
    return tuple(MBR(*_rect(box)) for box in boxes(features))


def _edges(box):
    x0, y0, x1, y1, x2, y2, x3, y3 = box.corner_coords()
    return (
        (x0, y0, x1, y1),
        (x1, y1, x2, y2),
        (x2, y2, x3, y3),
        (x3, y3, x0, y0),
    )


def box_scale(features):
    return max(
        (abs(c) for box in boxes(features) for c in _rect(box)), default=0.0
    )


def point_to_boxes_distance(features, x, y):
    """``d(p, T.B)`` — distance from a point to the box union."""
    best = math.inf
    for box, envelope in zip(boxes(features), envelopes(features)):
        if envelope.distance_to_point(x, y) >= best:
            continue
        d = box.distance_to_point(x, y)
        if d < best:
            best = d
            if best == 0.0:
                break
    return best


def point_exceeds_boxes(features, x, y, eps):
    """True iff ``d((x, y), T.B) > eps`` — the Lemma 13 decision."""
    for box, envelope in zip(boxes(features), envelopes(features)):
        if envelope.distance_to_point(x, y) > eps:
            continue
        if box.distance_to_point(x, y) <= eps:
            return False
    return True


def segment_to_boxes_distance(features, a, b):
    """Minimum distance from segment ``a-b`` to the box union."""
    best = math.inf
    for frame in features.frames:
        d = segment_box_sq_distance(a[0], a[1], b[0], b[1], *frame)
        if d < best:
            best = d
            if best == 0.0:
                break
    return math.sqrt(best)


def box_lower_bound_against(features, other):
    """``max_{bbox in T.B} max_{edge in bbox} d(edge, other.B)`` —
    Lemma 14's bound."""
    worst = 0.0
    for box in boxes(features):
        for x0, y0, x1, y1 in _edges(box):
            d = segment_to_boxes_distance(other, (x0, y0), (x1, y1))
            if d > worst:
                worst = d
    return worst


def exceeds_box_bound(features, other, eps):
    """True as soon as Lemma 14 proves ``f(features, other) > eps``."""
    reach = admit_reach(eps, max(box_scale(features), box_scale(other)))
    limit = reach * reach
    o_frames = [box.frame() for box in boxes(other)]
    o_rects = [_rect(box) for box in boxes(other)]
    for box in boxes(features):
        min_x, min_y, max_x, max_y = _rect(box)
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
        for x0, y0, x1, y1 in _edges(box):
            for frame in near:
                if (
                    segment_box_sq_distance(x0, y0, x1, y1, *frame, limit)
                    <= limit
                ):
                    break
            else:
                return True
    return False


#: the production Lemma 5 / 12 stage, kept before any test patches it
_HEAD = LocalFilter.head


def oracle_passes(self, record):
    """``LocalFilter.passes``: the production Lemmas 5 and 12, then
    :func:`oracle_tail`."""
    return _HEAD(self, record) and oracle_tail(self, record)


def oracle_tail(self, record):
    """``LocalFilter.tail`` with Lemmas 13-14 on the object path.

    Both compare with ``admit_reach(eps, scale)``, as the production
    filter does.
    """
    if self.eps == math.inf:
        return self.admit(record)
    stages = self.stages
    features, q_features, eps = record.features, self.features, self.eps
    reach = admit_reach(eps, max(box_scale(features), box_scale(q_features)))
    if "rep_points" in stages and (
        any(
            point_exceeds_boxes(q_features, x, y, reach)
            for x, y in features.rep_points
        )
        or any(
            point_exceeds_boxes(features, x, y, reach)
            for x, y in q_features.rep_points
        )
    ):
        self.stats.rejected_rep_points += 1
        return False
    if (
        "boxes" in stages
        and features.num_boxes * q_features.num_boxes
        <= LocalFilter.MAX_BOX_PAIRS
        and (
            exceeds_box_bound(features, q_features, eps)
            or exceeds_box_bound(q_features, features, eps)
        )
    ):
        self.stats.rejected_boxes += 1
        return False
    return self.admit(record)
