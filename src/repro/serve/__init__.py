"""The distributed serving tier: shard workers behind a coordinator.

``ServingCluster`` shards a TraSS dataset by row-key salt across N
worker processes (with optional replicas), scatter-gathers threshold
and top-k queries, and returns answers bit-identical to the
single-process engine — with replica failover, hedged requests,
degraded-mode accounting and an admission-control front door.
See DESIGN.md §12 for the topology and the exactness argument.
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.coordinator import ServingCluster
from repro.serve.obs import ClusterObservability
from repro.serve.protocol import Reply, Request, TraceContext
from repro.serve.supervisor import ReplicaHandle, ShardSupervisor
from repro.serve.worker import WorkerSpec, worker_main

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "ClusterObservability",
    "ServingCluster",
    "Request",
    "Reply",
    "TraceContext",
    "ReplicaHandle",
    "ShardSupervisor",
    "WorkerSpec",
    "worker_main",
]
