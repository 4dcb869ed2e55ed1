"""Shard worker: one process owning one partition's salt slice.

A worker is a full single-process TraSS engine restricted to the
trajectories whose salted row keys fall in its partition.  The salt is
the *first byte* of every row key and is a pure function of the
trajectory id (:func:`~repro.kvstore.rowkey.shard_of`), so partitioning
by ``salt % partitions`` on the coordinator and rebuilding each slice
in its worker reproduces exactly the key placement the single-process
store would have — scans over the owned salts read exactly the rows the
single-process scan would have read from those salts.

The worker loop is strictly FIFO over its pipe: requests are answered
in arrival order, which is what lets the coordinator pipeline a whole
workload per connection and match replies positionally by id.

Replicas of the same partition are built from the same spec, hence
byte-identical stores: failing over re-asks an identical store, which
is the exactness half of the failover argument (DESIGN.md §12).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.engine import TraSS
from repro.core.config import TraSSConfig
from repro.core.threshold import scan_and_refine
from repro.geometry.trajectory import Trajectory
from repro.index.ranges import IndexRange
from repro.kvstore.metrics import named_counters
from repro.serve.protocol import (
    KIND_CRASH,
    KIND_PING,
    KIND_SHUTDOWN,
    KIND_STALL,
    KIND_THRESHOLD,
    KIND_TOPK,
    PROTOCOL_VERSION,
    Reply,
    Request,
    TraceContext,
    encode_error,
)


@dataclass
class WorkerSpec:
    """Everything a worker process needs to rebuild its store slice.

    Carried across the process boundary by pickle, so it holds only
    plain data: the engine config, the raw ``(tid, points)`` pairs of
    the partition, and the salts the partition owns.
    """

    partition: int
    replica: int
    config: TraSSConfig
    key_encoding: str
    trajectories: List[Tuple[str, tuple]]
    owned_salts: Tuple[int, ...]
    #: when set, the worker loads its slice from this saved store
    #: directory instead of rebuilding from ``trajectories``.  All
    #: replicas of a partition point at the *same* compact-segment
    #: files, which they then map read-only — the kernel page cache
    #: holds one copy of every block no matter how many replicas serve
    #: it (the shared-memory serving mode).
    store_dir: Optional[str] = field(default=None)


def build_worker_engine(spec: WorkerSpec) -> TraSS:
    """Materialise the partition's engine from its spec."""
    if spec.store_dir is not None:
        engine = TraSS.load(spec.store_dir)
    else:
        engine = TraSS(spec.config, spec.key_encoding)
        engine.add_all(
            Trajectory(tid, points) for tid, points in spec.trajectories
        )
    return engine


def _handle(engine: TraSS, spec: WorkerSpec, request: Request) -> Reply:
    payload = request.payload
    if request.kind == KIND_PING:
        return Reply(
            request.id,
            True,
            payload={
                "partition": spec.partition,
                "replica": spec.replica,
                "trajectories": len(engine),
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
            },
        )
    query = Trajectory(payload["tid"], payload["points"])
    measure = engine._resolve_measure(payload.get("measure"))
    before = engine.metrics.counters()
    if request.kind == KIND_THRESHOLD:
        # The coordinator planned: run the single-process query's
        # scan-and-refine half, restricted to the owned salts, so the
        # merged partials are field-for-field the single-process result.
        result = scan_and_refine(
            engine.store,
            measure,
            [query],
            [payload["eps"]],
            [[IndexRange(start, stop) for start, stop in payload["ranges"]]],
            engine.tracer,
            shards=spec.owned_salts,
        )[0]
    elif request.kind == KIND_TOPK:
        # Top-k plans adaptively, so there is no coordinator plan to
        # share: each worker runs the full best-first search on its own
        # slice and the coordinator keeps the global k smallest.
        result = engine.topk_search(query, payload["k"], measure=measure.name)
    else:
        raise ValueError(f"unknown request kind {request.kind!r}")
    return Reply(
        request.id,
        True,
        payload=result,
        io_delta=named_counters(engine.metrics.since(before)),
    )


def worker_main(spec: WorkerSpec, conn) -> None:
    """Process entry point: build the slice, then serve FIFO forever.

    Exits when the pipe closes (coordinator gone), on an explicit
    shutdown, or — via ``os._exit`` — on a crash directive, which must
    look exactly like ``kill -9`` to the coordinator (no reply, dead
    pipe).
    """
    engine = build_worker_engine(spec)
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request.kind == KIND_SHUTDOWN:
            conn.close()
            return
        if request.kind == KIND_CRASH:
            os._exit(1)
        if request.kind == KIND_STALL:
            time.sleep(float(request.payload.get("seconds", 0.0)))
            try:
                conn.send(Reply(request.id, True, payload="stalled"))
            except (BrokenPipeError, OSError):
                return
            continue
        try:
            trace = getattr(request, "trace", None)
            if trace is not None:
                reply = _handle_traced(engine, spec, request, trace)
            else:
                reply = _handle(engine, spec, request)
        except Exception as exc:  # typed error crosses the wire
            reply = Reply(request.id, False, error=encode_error(exc))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


def _handle_traced(
    engine: TraSS, spec: WorkerSpec, request: Request, trace: TraceContext
) -> Reply:
    """Run one request under a recording tracer and ship the subtree.

    The tracer rides the engine's ``trace_clock`` — wall time plus
    virtual charges normally, purely virtual under fault injection —
    so shipped durations are deterministic in chaos drills.  Tracing is
    observational: the handler's reply is byte-identical to an untraced
    run, it only gains the ``spans`` subtree.
    """
    tracer = engine.make_tracer()
    with engine.traced(tracer):
        with tracer.span(
            "worker.handle",
            trace_id=trace.trace_id,
            kind=request.kind,
            partition=spec.partition,
            replica=spec.replica,
            pid=os.getpid(),
        ) as root:
            reply = _handle(engine, spec, request)
    reply.spans = root.to_dict(include_events=trace.include_events)
    return reply
