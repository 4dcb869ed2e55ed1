"""Datasets and workloads.

The paper evaluates on two real datasets — T-Drive (taxis, Beijing) and
Lorry (JD logistics, China-wide) — and five synthetic scalings of
Lorry.  Neither real dataset ships here, so :mod:`generators` produces
seeded synthetic stand-ins that preserve the properties the paper's
analysis depends on (spatial extent, heavy-tailed trip lengths, the
stationary-taxi artefact), :mod:`datasets` names the standard
configurations, :mod:`workload` samples query sets, and :mod:`io`
round-trips trajectories through CSV.
"""

from repro.data.generators import (
    tdrive_like,
    lorry_like,
    random_walks,
    scaled,
    TDRIVE_BOUNDS,
    LORRY_BOUNDS,
)
from repro.data.datasets import load_dataset, dataset_names
from repro.data.workload import sample_queries
from repro.data.io import save_csv, load_csv
from repro.data.noise import jitter, downsample, add_outliers, duplicate_pings

__all__ = [
    "tdrive_like",
    "lorry_like",
    "random_walks",
    "scaled",
    "TDRIVE_BOUNDS",
    "LORRY_BOUNDS",
    "load_dataset",
    "dataset_names",
    "sample_queries",
    "save_csv",
    "load_csv",
    "jitter",
    "downsample",
    "add_outliers",
    "duplicate_pings",
]
