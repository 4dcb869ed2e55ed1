"""Local filtering (Section V-D, Algorithm 2).

Runs per retrieved trajectory, inside the scan ("pushed down into the
coprocessor", Figure 8), ordered cheap-to-expensive exactly as the
paper prescribes ("we execute Lemmas from simple to complex"):

1. MBR gap — if the two MBRs are more than ``eps`` apart no point of
   ``T`` can be within ``eps`` of any point of ``Q`` (Lemma 5); decided
   on the record's endpoints first, see :meth:`LocalFilter.head`;
2. start/end points (Lemma 12) — Fréchet and DTW must match first with
   first and last with last; *skipped for Hausdorff*;
3. representative points against the other side's box union, both
   directions (Lemma 13);
4. box edges against the other side's box union, both directions
   (Lemma 14).

The stages split in two: :meth:`LocalFilter.head` runs steps 1-2, O(1)
on the row head, and :meth:`LocalFilter.tail` runs steps 3-4 on the DP
features; :meth:`LocalFilter.passes` is both.  Top-k calls ``passes``
inside the scan under DTW and Hausdorff; under Fréchet it runs only
``head`` there, since the lower bound it takes before each refinement
dominates Lemmas 13-14 (:mod:`repro.core.topk`).  Threshold search
calls ``passes`` inside the scan under Hausdorff; under a measure with
Lemma 12 (Fréchet, DTW), where ``tail`` rejects few of the rows
``head`` passes, it runs only ``head`` there and refines every head
survivor, and since a sound filter passes every answer, ``tail`` runs
only on the rows the measure rejected, to count the rejections
``passes`` would have made (:func:`repro.core.threshold.
scan_and_refine`).  The query's own DP features are built on the first
``tail`` call.

The threshold is mutable so the top-k search can tighten it as results
accumulate (Algorithm 4 line 17).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.storage import TrajectoryRecord
from repro.exceptions import QueryError
from repro.features.dp_features import (
    DPFeatures,
    Frame,
    LemmaBox,
    extract_dp_features,
)
from repro.geometry.segment import admit_reach, segment_box_sq_distance
from repro.geometry.trajectory import Trajectory
from repro.kvstore.filters import RowFilter
from repro.measures.base import Measure
from repro.obs.tracing import NULL_TRACER


@dataclass
class LocalFilterStats:
    """Per-query tallies of which lemma removed how much."""

    evaluated: int = 0
    rejected_mbr: int = 0
    rejected_start_end: int = 0
    rejected_rep_points: int = 0
    rejected_boxes: int = 0
    passed: int = 0

    @property
    def rejected(self) -> int:
        return (
            self.rejected_mbr
            + self.rejected_start_end
            + self.rejected_rep_points
            + self.rejected_boxes
        )

    def merge_from(self, other: "LocalFilterStats") -> None:
        """Fold a serving partition's tallies into this bundle."""
        self.evaluated += other.evaluated
        self.rejected_mbr += other.rejected_mbr
        self.rejected_start_end += other.rejected_start_end
        self.rejected_rep_points += other.rejected_rep_points
        self.rejected_boxes += other.rejected_boxes
        self.passed += other.passed

    def as_dict(self) -> Dict[str, int]:
        return {
            "evaluated": self.evaluated,
            "rejected_mbr": self.rejected_mbr,
            "rejected_start_end": self.rejected_start_end,
            "rejected_rep_points": self.rejected_rep_points,
            "rejected_boxes": self.rejected_boxes,
            "rejected": self.rejected,
            "passed": self.passed,
        }


class LocalFilter:
    """The Algorithm 2 predicate for one query."""

    #: every filtering stage, in execution order
    ALL_STAGES = frozenset({"mbr", "start_end", "rep_points", "boxes"})
    #: Lemma 14 cost cap: beyond this many edge/box pairs the stage is
    #: skipped in favour of the exact (early-abandoning) measure
    MAX_BOX_PAIRS = 2500

    def __init__(
        self,
        query: Trajectory,
        measure: Measure,
        eps: float,
        dp_tolerance: float,
        stages: Optional[frozenset] = None,
    ):
        if eps < 0:
            raise QueryError(f"threshold must be non-negative, got {eps}")
        if stages is not None and not set(stages) <= self.ALL_STAGES:
            raise QueryError(
                f"unknown filter stages {set(stages) - self.ALL_STAGES}"
            )
        self.query = query
        self.measure = measure
        self.eps = eps
        self.dp_tolerance = dp_tolerance
        self.stats = LocalFilterStats()
        #: ablation switch: which lemma stages run (default: all)
        self.stages = self.ALL_STAGES if stages is None else frozenset(stages)
        #: span-event sink
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------
    def set_threshold(self, eps: float) -> None:
        """Tighten (or set) the working threshold; used by top-k."""
        self.eps = eps

    # ------------------------------------------------------------------
    @cached_property
    def features(self) -> DPFeatures:
        """The query's DP features, built on the first :meth:`tail`: a
        threshold query whose survivors are all answers never needs
        them."""
        return extract_dp_features(self.query, self.dp_tolerance)

    def passes(self, record: TrajectoryRecord) -> bool:
        """True when the record survives every lemma at the current
        threshold and must go on to exact refinement."""
        return self.head(record) and self.tail(record)

    def head(self, record: TrajectoryRecord) -> bool:
        """Lemmas 5 and 12, O(1) on the row head: False (counted) when
        one rejects the record; True when the record must go on to
        :meth:`tail`, which counts the pass."""
        self.stats.evaluated += 1
        eps = self.eps
        if eps == math.inf:
            return True
        query = self.query

        # Step 0 — MBR gap (Lemma 5 applied to the bounding boxes),
        # decided on the row head where it can be.  T's MBR contains
        # both endpoints, so d(Q.mbr, T.mbr) <= d(Q.mbr, endpoint): an
        # endpoint within eps proves the stage passes without unpacking
        # the points.  The rounded distances keep that order: per axis,
        # ``distance_to_point`` subtracts a coordinate inside T's MBR
        # where ``distance_to_rect`` subtracts that MBR's edge, and float
        # subtraction and ``math.hypot`` are monotone.  So the decision
        # is exactly ``distance_to_rect(record.mbr) > eps``.
        q_mbr = query.mbr
        if (
            "mbr" in self.stages
            and q_mbr.distance_to_point(*record.start) > eps
            and q_mbr.distance_to_point(*record.end) > eps
            and q_mbr.distance_to_rect(record.mbr) > eps
        ):
            self.stats.rejected_mbr += 1
            if self.tracer.enabled:
                self.tracer.add_event(
                    "filter.reject", lemma="mbr", tid=record.tid
                )
            return False

        # Step 1 — Lemma 12, start and end points (order-aware measures).
        if "start_end" in self.stages and self.measure.supports_start_end_filter:
            q_start, q_end = query.points[0], query.points[-1]
            t_start, t_end = record.start, record.end
            if (
                math.hypot(q_start[0] - t_start[0], q_start[1] - t_start[1]) > eps
                or math.hypot(q_end[0] - t_end[0], q_end[1] - t_end[1]) > eps
            ):
                self.stats.rejected_start_end += 1
                if self.tracer.enabled:
                    self.tracer.add_event(
                        "filter.reject", lemma="start_end", tid=record.tid
                    )
                return False
        return True

    def tail(self, record: TrajectoryRecord) -> bool:
        """Lemmas 13 and 14 on the DP features, for a record that passed
        :meth:`head`: counts the record as passed or as rejected by the
        lemma that drops it."""
        eps = self.eps
        if eps == math.inf:
            return self.admit(record)
        # Steps 2-3 read both sides' boxes as flat tuples and compare
        # with ``admit_reach``: just above eps, by the rounding of the
        # corner and frame transforms, so rounding can keep a candidate
        # for refinement but never drop an answer.
        features = record.features
        q_features = self.features
        boxes, scale = features.geometry
        q_boxes, q_scale = q_features.geometry
        reach = admit_reach(eps, max(scale, q_scale))

        # Step 2 — Lemma 13 in both directions: a representative point
        # is a raw point, so its distance to the other side's box union
        # lower-bounds the similarity distance.
        if "rep_points" in self.stages and (
            points_exceed_boxes(features.rep_points, q_boxes, reach)
            or points_exceed_boxes(q_features.rep_points, boxes, reach)
        ):
            self.stats.rejected_rep_points += 1
            if self.tracer.enabled:
                self.tracer.add_event(
                    "filter.reject", lemma="rep_points", tid=record.tid
                )
            return False

        # Step 3 — Lemma 14 in both directions: every box edge carries a
        # raw point of its side.  The stage is quadratic in box counts,
        # so it is skipped for feature pairs where its cost would rival
        # the exact measure it exists to avoid (sound: skipping a filter
        # only admits more candidates).
        if (
            "boxes" in self.stages
            and len(boxes) * len(q_boxes) <= self.MAX_BOX_PAIRS
        ):
            limit = reach * reach
            if edges_exceed_boxes(
                boxes, q_boxes, reach, limit
            ) or edges_exceed_boxes(q_boxes, boxes, reach, limit):
                self.stats.rejected_boxes += 1
                if self.tracer.enabled:
                    self.tracer.add_event(
                        "filter.reject", lemma="boxes", tid=record.tid
                    )
                return False
        return self.admit(record)

    def admit(self, record: TrajectoryRecord) -> bool:
        """Count the record as passed.  Threshold search admits its
        answers without :meth:`tail`: Lemmas 13-14 are sound lower
        bounds compared at ``admit_reach``, so they pass every record
        within ``eps``."""
        self.stats.passed += 1
        if self.tracer.enabled:
            self.tracer.add_event("filter.pass", tid=record.tid)
        return True


def points_exceed_boxes(
    points: Sequence[Tuple[float, float]],
    boxes: Sequence[LemmaBox],
    reach: float,
) -> bool:
    """Lemma 13: True iff some point is farther than ``reach`` from
    every box of ``boxes`` (:attr:`DPFeatures.geometry`).

    Per box the envelope gate comes first, then the local-frame test;
    each uses the float operations of the object method it replaced
    (``MBR.distance_to_point``, and the box's point distance that the
    tests' oracle keeps), so every decision is theirs bit for bit.
    Their ``max(lo - v, 0.0, v - hi)`` is written as a conditional,
    which picks the same value because ``lo <= hi`` for envelopes and
    for both box constructions.

    The filter passes ``admit_reach(eps, scale)``, not ``eps``: an
    envelope corner or a frame coordinate can round past the raw point
    it bounds, and compared with ``eps`` itself a trajectory queried with
    itself at ``eps = 0`` was rejected.
    """
    hypot = math.hypot
    for x, y in points:
        for (min_x, min_y, max_x, max_y), frame, _ in boxes:
            dx = min_x - x if x < min_x else (x - max_x if x > max_x else 0.0)
            dy = min_y - y if y < min_y else (y - max_y if y > max_y else 0.0)
            if hypot(dx, dy) > reach:
                continue
            ax, ay, ux, uy, lo_a, hi_a, lo_p, hi_p = frame
            rx, ry = x - ax, y - ay
            a, p = rx * ux + ry * uy, -rx * uy + ry * ux
            da = lo_a - a if a < lo_a else (a - hi_a if a > hi_a else 0.0)
            dp = lo_p - p if p < lo_p else (p - hi_p if p > hi_p else 0.0)
            if hypot(da, dp) <= reach:
                break
        else:
            return True
    return False


def _corner_near(
    x: float, y: float, frames: Sequence[Frame], limit: float
) -> bool:
    """True iff ``(x, y)`` is within ``limit`` (squared) of some frame,
    by :func:`segment_box_sq_distance`'s own endpoint test."""
    for ax, ay, ux, uy, lo_a, hi_a, lo_p, hi_p in frames:
        rx, ry = x - ax, y - ay
        a, p = rx * ux + ry * uy, ry * ux - rx * uy
        da = lo_a - a if a < lo_a else (a - hi_a if a > hi_a else 0.0)
        dp = lo_p - p if p < lo_p else (p - hi_p if p > hi_p else 0.0)
        if da * da + dp * dp <= limit:
            return True
    return False


def edges_exceed_boxes(
    boxes: Sequence[LemmaBox],
    others: Sequence[LemmaBox],
    reach: float,
    limit: float,
) -> bool:
    """Lemma 14: True iff some edge of some box of ``boxes`` is farther
    than ``reach`` (``admit_reach``; ``limit`` is its square) from every
    box of ``others``.

    Per box, the other side's frames are screened once by envelope gap.
    Corners are then tested against the near frames (:func:`_corner_near`;
    two opposite corners first, which admit all four edges when both are
    near): a corner within ``limit`` of a frame makes
    :func:`segment_box_sq_distance` return ``<= limit`` for both edges
    that meet there (its gap test is bounded by either endpoint's
    distance, and its endpoint test then admits).  Only an edge with both
    corners outside meets the kernel.
    """
    for (min_x, min_y, max_x, max_y), _, corners in boxes:
        near = [
            frame
            for (o_min_x, o_min_y, o_max_x, o_max_y), frame, _ in others
            if o_min_x - max_x <= reach
            and min_x - o_max_x <= reach
            and o_min_y - max_y <= reach
            and min_y - o_max_y <= reach
        ]
        if not near:
            return True
        x0, y0, x1, y1, x2, y2, x3, y3 = corners
        h0 = _corner_near(x0, y0, near, limit)
        h2 = _corner_near(x2, y2, near, limit)
        if h0 and h2:
            continue
        h1 = _corner_near(x1, y1, near, limit)
        h3 = _corner_near(x3, y3, near, limit)
        for admitted, ex0, ey0, ex1, ey1 in (
            (h0 or h1, x0, y0, x1, y1),
            (h1 or h2, x1, y1, x2, y2),
            (h2 or h3, x2, y2, x3, y3),
            (h3 or h0, x3, y3, x0, y0),
        ):
            if admitted:
                continue
            for frame in near:
                d = segment_box_sq_distance(ex0, ey0, ex1, ey1, *frame, limit)
                if d <= limit:
                    break
            else:
                return True
    return False


def _row_record(key: bytes, value: bytes) -> TrajectoryRecord:
    return TrajectoryRecord.from_row(value)


class LocalFilterRowFilter(RowFilter):
    """Server-side adapter: read the row, apply :class:`LocalFilter`.

    Accepted records are cached by row key so the client does not read
    rows it is about to refine a second time.  ``decoder(key, value)``
    builds the record — :meth:`TrajectoryRecord.from_row` by default;
    the store passes its record-cache-backed decoder here, so repeated
    scans of the same rows reuse their records.  ``predicate(record)``
    is the filter's :meth:`LocalFilter.passes` unless the caller runs
    fewer lemmas in the scan.
    """

    def __init__(
        self,
        local_filter: LocalFilter,
        decoder: Callable[[bytes, bytes], TrajectoryRecord] = _row_record,
        predicate: Optional[Callable[[TrajectoryRecord], bool]] = None,
    ):
        self.local_filter = local_filter
        self.decoder = decoder
        self.predicate = local_filter.passes if predicate is None else predicate
        self.accepted: Dict[bytes, TrajectoryRecord] = {}

    def accept(self, key: bytes, value: bytes) -> bool:
        record = self.decoder(key, value)
        if self.predicate(record):
            self.accepted[bytes(key)] = record
            return True
        return False
