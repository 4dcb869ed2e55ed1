"""Representative trajectory features (Section IV-D).

The Douglas-Peucker algorithm picks a handful of representative points
whose connecting chords stay within ``theta`` of every original point;
:class:`DPFeatures` pairs those points with per-chord covering boxes.
Local filtering (Section V-D) runs entirely on these features, which is
what makes it cheap relative to the exact measures.
"""

from repro.features.douglas_peucker import douglas_peucker, douglas_peucker_mask
from repro.features.dp_features import DPFeatures, extract_dp_features

__all__ = [
    "douglas_peucker",
    "douglas_peucker_mask",
    "DPFeatures",
    "extract_dp_features",
]
