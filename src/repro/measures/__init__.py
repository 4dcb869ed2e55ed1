"""Trajectory similarity measures.

The paper adopts classic measures rather than inventing one: discrete
Fréchet distance (the default), Hausdorff distance, and DTW
(Section II-A and Section VII).  Each measure ships a plain evaluator
and a threshold-aware evaluator that abandons early once the result is
provably above the threshold — the refinement step of query processing
depends on the latter.
"""

from repro.measures.base import Measure, get_measure, available_measures
from repro.measures.frechet import DiscreteFrechet, discrete_frechet
from repro.measures.hausdorff import Hausdorff, hausdorff
from repro.measures.dtw import DTW, dtw

__all__ = [
    "Measure",
    "get_measure",
    "available_measures",
    "DiscreteFrechet",
    "discrete_frechet",
    "Hausdorff",
    "hausdorff",
    "DTW",
    "dtw",
]
