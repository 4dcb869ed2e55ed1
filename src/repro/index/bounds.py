"""World-to-unit-square normalisation.

The XZ* math lives in the unit square ("we normalize the entire space
range to an interval of 0-1", Section IV-B).  ``SpaceBounds`` is the
affine bridge between world coordinates (e.g. lon/lat) and that square.
The paper's default instantiation covers the whole earth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.exceptions import GeometryError
from repro.geometry.mbr import MBR


@dataclass(frozen=True)
class SpaceBounds:
    """An axis-aligned world extent mapped onto the unit square."""

    min_x: float = -180.0
    min_y: float = -90.0
    max_x: float = 180.0
    max_y: float = 90.0

    def __post_init__(self) -> None:
        if self.min_x >= self.max_x or self.min_y >= self.max_y:
            raise GeometryError(
                f"degenerate space bounds ({self.min_x}, {self.min_y}) .. "
                f"({self.max_x}, {self.max_y})"
            )

    @staticmethod
    def whole_earth() -> "SpaceBounds":
        """The paper's default: the index space covers the earth."""
        return SpaceBounds(-180.0, -90.0, 180.0, 90.0)

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    # ------------------------------------------------------------------
    def normalize(self, x: float, y: float) -> Tuple[float, float]:
        """World point -> unit-square point (clamped to [0, 1]).

        Only queries can reach the clamp: stored trajectories pass
        :meth:`check_stored` first.
        """
        nx = (x - self.min_x) / self.width
        ny = (y - self.min_y) / self.height
        return min(max(nx, 0.0), 1.0), min(max(ny, 0.0), 1.0)

    def normalize_columns(
        self, xs: Sequence[float], ys: Sequence[float], mbr: MBR
    ) -> Tuple[List[float], List[float], Tuple[float, float, float, float]]:
        """World coordinate columns -> unit-square columns, each value
        as :meth:`normalize` maps it, plus their bounding box
        ``(min_x, min_y, max_x, max_y)`` mapped from the columns' world
        ``mbr``: what indexing a trajectory needs, without a tuple per
        point."""
        nxs, min_x, max_x = _to_unit(
            xs, self.min_x, self.width, mbr.min_x, mbr.max_x
        )
        nys, min_y, max_y = _to_unit(
            ys, self.min_y, self.height, mbr.min_y, mbr.max_y
        )
        return nxs, nys, (min_x, min_y, max_x, max_y)

    def unit_box(self, mbr: MBR) -> Tuple[float, float, float, float]:
        """A world MBR as ``(min_x, min_y, max_x, max_y)`` in the unit
        square, each corner as :meth:`normalize` maps it."""
        lo = self.normalize(mbr.min_x, mbr.min_y)
        hi = self.normalize(mbr.max_x, mbr.max_y)
        return lo[0], lo[1], hi[0], hi[1]

    def denormalize(self, nx: float, ny: float) -> Tuple[float, float]:
        """Unit-square point -> world point."""
        return self.min_x + nx * self.width, self.min_y + ny * self.height

    def normalize_mbr(self, mbr: MBR) -> MBR:
        lo = self.normalize(mbr.min_x, mbr.min_y)
        hi = self.normalize(mbr.max_x, mbr.max_y)
        return MBR(lo[0], lo[1], hi[0], hi[1])

    def normalize_length(self, d: float) -> float:
        """Conservative world length -> unit length conversion.

        A threshold ``eps`` is isotropic in world space but the bounds
        may be anisotropic; using the *larger* scale factor keeps every
        distance-based pruning bound sound (it can only widen windows).
        """
        return d / min(self.width, self.height)

    def contains(self, x: float, y: float) -> bool:
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def check_stored(self, tid: str, mbr: MBR) -> None:
        """Reject a trajectory to be stored whose MBR leaves the bounds.

        :meth:`normalize` would clamp it into an edge cell whose world
        rectangle does not contain it, and global pruning (Lemmas 8-11)
        would then drop it from threshold queries that should find it.
        """
        if not (
            self.contains(mbr.min_x, mbr.min_y)
            and self.contains(mbr.max_x, mbr.max_y)
        ):
            raise GeometryError(
                f"trajectory {tid!r} leaves the space bounds "
                f"({self.min_x}, {self.min_y}) .. ({self.max_x}, {self.max_y}):"
                f" its MBR is ({mbr.min_x}, {mbr.min_y}) .. "
                f"({mbr.max_x}, {mbr.max_y})"
            )


def _to_unit(
    values: Sequence[float], lo: float, extent: float, low: float, high: float
) -> Tuple[List[float], float, float]:
    """One axis of :meth:`SpaceBounds.normalize_columns`: the unit
    values and their minimum and maximum, mapped from the values' world
    minimum ``low`` and maximum ``high`` (the map and the clamp are
    monotone, so they send the extremes to the extremes).  The ``[0, 1]``
    clamp runs only when some value needs it, which stored trajectories
    never do."""
    unit = [(v - lo) / extent for v in values]
    low, high = (low - lo) / extent, (high - lo) / extent
    if low < 0.0 or high > 1.0:
        unit = [min(max(u, 0.0), 1.0) for u in unit]
        low, high = min(max(low, 0.0), 1.0), min(max(high, 0.0), 1.0)
    return unit, low, high
