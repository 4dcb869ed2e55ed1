"""repro — a reproduction of TraSS (ICDE 2022).

TraSS is an efficient framework for trajectory similarity search on
key-value data stores.  This package reimplements the full system in
Python: the XZ* spatial index with its bijective integer encoding, the
global-pruning / local-filtering query pipeline for threshold and top-k
similarity search under discrete Fréchet, Hausdorff and DTW, an
embedded HBase-like key-value store substrate, and the baselines the
paper compares against.

Quick start::

    from repro import TraSS, Trajectory

    engine = TraSS.build([Trajectory("t1", [(116.30, 39.90), (116.32, 39.91)])])
    hits = engine.threshold_search(
        Trajectory("q", [(116.31, 39.90), (116.33, 39.91)]), eps=0.05
    )
"""

from repro.core.config import TraSSConfig
from repro.core.engine import TraSS
from repro.exceptions import (
    ClusterError,
    DegradedResult,
    EncodingError,
    FatalError,
    GeometryError,
    IndexingError,
    KVStoreError,
    Overloaded,
    OverloadedError,
    QueryError,
    RegionUnavailableError,
    ReproError,
    ScanTimeoutError,
    ShardUnavailableError,
    TransientError,
)
from repro.kvstore.faults import FaultInjector, FaultSchedule, SimulatedCrash
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.geometry.trajectory import Trajectory
from repro.index.bounds import SpaceBounds
from repro.index.xz2 import XZ2Index
from repro.index.xzstar import XZStarIndex
from repro.measures import available_measures, get_measure
from repro.obs import (
    ExplainAnalyzeReport,
    MetricsRegistry,
    Tracer,
    explain_analyze,
    format_span_tree,
)

__version__ = "1.0.0"

__all__ = [
    "TraSS",
    "TraSSConfig",
    "Trajectory",
    "Point",
    "MBR",
    "SpaceBounds",
    "XZStarIndex",
    "XZ2Index",
    "available_measures",
    "get_measure",
    "ReproError",
    "GeometryError",
    "IndexingError",
    "EncodingError",
    "KVStoreError",
    "QueryError",
    "TransientError",
    "FatalError",
    "DegradedResult",
    "RegionUnavailableError",
    "ScanTimeoutError",
    "ClusterError",
    "ShardUnavailableError",
    "OverloadedError",
    "Overloaded",
    "FaultInjector",
    "FaultSchedule",
    "SimulatedCrash",
    "ExplainAnalyzeReport",
    "MetricsRegistry",
    "Tracer",
    "explain_analyze",
    "format_span_tree",
    "__version__",
]
