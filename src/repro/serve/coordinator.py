"""The scatter-gather coordinator of the serving tier.

``ServingCluster`` promotes the single-process engine to N shard
worker processes behind one front door:

* **partitioning** — trajectory ``tid`` hashes to a salt (the first
  byte of its row key); partition ``p`` owns the salts
  ``{s : s % partitions == p}``.  Each worker rebuilds exactly its
  partition's slice, so per-shard scans read exactly the rows the
  single-process scan would read from those salts and per-shard answer
  sets are disjoint — the coordinator merge is a plain union
  (threshold) or a k-smallest merge (top-k).
* **planning** — global pruning is a pure function of the query, the
  threshold and the index geometry (never of the stored rows), so the
  coordinator plans once on an *empty* engine and ships only the
  index-value ranges; workers map them onto their owned salts.
* **robustness** — per-partition replicas with automatic failover on
  worker crash, pipe EOF, transient worker errors, or timeout; hedged
  requests to straggler shards (opt-in ``hedge_delay_seconds``);
  circuit breakers per ``(partition, replica)`` slot reusing the PR 1
  breaker; bounded attempts; and when a partition is truly
  unreachable, degraded-mode accounting that reports the *exact*
  skipped key ranges in the same shape as the ``ResilientExecutor``
  contract — or, without ``degraded_mode``, a typed
  :class:`~repro.exceptions.DegradedResult` carrying the partial
  answer.
* **admission control** — an :class:`AdmissionController` front door
  (per-tenant token buckets + queue-depth shedding) raising typed
  :class:`~repro.exceptions.OverloadedError` rejections.
"""

from __future__ import annotations

import time
from collections import deque
from multiprocessing.connection import wait as _mp_wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.batch import normalise_thresholds
from repro.core.engine import QUERY_PARAMETER, TraSS
from repro.core.executor import CircuitBreaker, ScanReport
from repro.core.local_filter import LocalFilterStats
from repro.core.pruning import PruningResult
from repro.core.threshold import ThresholdSearchResult
from repro.core.topk import TopKSearchResult, check_k
from repro.exceptions import ClusterError, DegradedResult
from repro.geometry.trajectory import Trajectory
from repro.index.ranges import IndexRange
from repro.kvstore.rowkey import shard_of
from repro.kvstore.table import ScanRange
from repro.obs.tracing import NULL_TRACER, graft_span_dict
from repro.serve.admission import AdmissionController
from repro.serve.obs import ClusterObservability
from repro.serve.protocol import (
    KIND_CRASH,
    KIND_PING,
    KIND_STALL,
    KIND_STATS,
    KIND_THRESHOLD,
    KIND_TOPK,
    PROTOCOL_VERSION,
    Reply,
    Request,
    TraceContext,
    decode_error,
    error_is_transient,
)
from repro.serve.supervisor import ReplicaHandle, ShardSupervisor
from repro.serve.worker import WorkerSpec


class _Flight:
    """One partition's in-flight request during a single-query scatter."""

    __slots__ = (
        "partition",
        "request",
        "tried",
        "active",
        "attempts",
        "attempt_started",
        "hedged",
        "hedge_handle",
        "done",
        "exhausted",
        "reply",
        "winner_slot",
        "service_seconds",
    )

    def __init__(self, partition: int, request: Request):
        self.partition = partition
        self.request = request
        self.tried: set = set()
        #: replica handle -> replica slot index, for every outstanding copy
        self.active: Dict[ReplicaHandle, int] = {}
        self.attempts = 0
        self.attempt_started = 0.0
        self.hedged = False
        self.hedge_handle: Optional[ReplicaHandle] = None
        self.done = False
        self.exhausted = False
        #: the reply that settled the flight: the winning answer, or a
        #: non-transient worker error (``None`` while unreachable)
        self.reply: Optional[Reply] = None
        #: replica slot that produced the winning reply
        self.winner_slot: Optional[int] = None
        #: launch-to-reply wall seconds of the winning attempt
        self.service_seconds: Optional[float] = None


class _PartitionBatch:
    """One partition's pipelined FIFO stream during a batch scatter."""

    __slots__ = (
        "partition",
        "requests",
        "queue",
        "inflight",
        "results",
        "handle",
        "slot",
        "tried",
        "attempts",
        "exhausted",
        "last_activity",
    )

    def __init__(self, partition: int, requests: List[Request]):
        self.partition = partition
        self.requests = requests
        self.queue = deque(requests)
        self.inflight: deque = deque()
        self.results: Dict[int, object] = {}
        self.handle: Optional[ReplicaHandle] = None
        self.slot: Optional[int] = None
        self.tried: set = set()
        self.attempts = 0
        self.exhausted = False
        self.last_activity = 0.0

    @property
    def finished(self) -> bool:
        return self.exhausted or len(self.results) == len(self.requests)


class ServingCluster:
    """Distributed TraSS serving: shard workers behind a coordinator.

    Usable as a context manager; :meth:`start` spawns the workers and
    blocks until every replica has built its slice and answered a ping.
    Answers are bit-identical to the single-process engine (threshold:
    disjoint-union of per-salt answer sets; top-k: k-smallest merge of
    per-shard top-k lists, identical in the absence of exact distance
    ties at the k-th boundary).
    """

    #: pipelined requests kept unanswered per worker pipe — bounds pipe
    #: buffer usage so sends never block behind a slow consumer
    BATCH_WINDOW = 16

    def __init__(
        self,
        config,
        key_encoding: str,
        trajectories: Sequence[Tuple[str, tuple]],
        partitions: int = 2,
        replication: int = 1,
        request_timeout: float = 30.0,
        startup_timeout: float = 120.0,
        hedge_delay_seconds: Optional[float] = None,
        max_attempts: Optional[int] = None,
        degraded_mode: bool = False,
        admission: Optional[AdmissionController] = None,
        fault_schedules: Optional[Dict[int, object]] = None,
        max_restarts: int = 3,
        breaker_failure_threshold: int = 3,
        breaker_cooldown_seconds: float = 5.0,
        tracer=None,
        segment_dir: Optional[str] = None,
        observability: bool = False,
        slo_objective_seconds: float = 0.5,
        slo_target: float = 0.99,
    ):
        if partitions < 1:
            raise ClusterError(f"partitions must be >= 1, got {partitions}")
        if partitions > config.shards:
            raise ClusterError(
                f"partitions ({partitions}) cannot exceed config.shards "
                f"({config.shards}): a partition must own at least one salt"
            )
        if replication < 1:
            raise ClusterError(f"replication must be >= 1, got {replication}")
        if request_timeout <= 0:
            raise ClusterError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        if hedge_delay_seconds is not None and hedge_delay_seconds < 0:
            raise ClusterError(
                f"hedge_delay_seconds must be >= 0, got {hedge_delay_seconds}"
            )
        self.config = config
        self.key_encoding = key_encoding
        self.partitions = partitions
        self.replication = replication
        self.request_timeout = request_timeout
        self.startup_timeout = startup_timeout
        self.hedge_delay_seconds = hedge_delay_seconds
        self.max_attempts = (
            max_attempts if max_attempts is not None else replication + 1
        )
        self.degraded_mode = degraded_mode
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Cluster-wide aggregation (SLO histograms, per-worker IO
        # accumulation, heartbeats) only exists when asked for — the
        # zero-cost-when-off contract leaves every hot-path guard a
        # single `is not None` check.
        self.obs: Optional[ClusterObservability] = (
            ClusterObservability(
                slo_objective_seconds=slo_objective_seconds,
                slo_target=slo_target,
            )
            if observability
            else None
        )
        #: per-partition attribution of the most recent single-query
        #: scatter (partition/replica/attempts/hedged/reached), consumed
        #: by the engine's slow-query log for cluster entries
        self.last_fanout: Optional[List[Dict[str, object]]] = None
        self.supervisor = ShardSupervisor(max_restarts=max_restarts)
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_failure_threshold,
            cooldown_seconds=breaker_cooldown_seconds,
        )
        # Planning is independent of stored data, so an empty engine
        # supplies the pruner, the range -> row-key mapping (for exact
        # skipped-range accounting) and measure resolution.
        self._plan_engine = TraSS(config, key_encoding)
        self._next_request_id = 0
        self._started = False
        self.counters: Dict[str, int] = {
            "requests": 0,
            "threshold_queries": 0,
            "topk_queries": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "failovers": 0,
            "degraded_queries": 0,
            "stale_replies": 0,
            "breaker_short_circuits": 0,
            "worker_errors": 0,
        }

        # Partition the dataset by the salt byte of each row key, and
        # reject here, before any fork, what a worker's ingest would.
        slices: List[List[Tuple[str, tuple]]] = [
            [] for _ in range(partitions)
        ]
        for tid, points in trajectories:
            config.bounds.check_stored(tid, Trajectory(tid, points).mbr)
            slices[self._partition_of(tid)].append((tid, points))
        # Shared-memory serving: materialise each partition's slice
        # once as a compact-segment store on disk; every replica of the
        # partition then opens the *same* files read-only via mmap, so
        # the page cache holds one copy of the data regardless of the
        # replication factor (instead of R private in-heap copies).
        store_dirs: List[Optional[str]] = [None] * partitions
        if segment_dir is not None:
            import os

            for p in range(partitions):
                slice_engine = TraSS(config, key_encoding)
                slice_engine.add_all(
                    Trajectory(tid, points) for tid, points in slices[p]
                )
                path = os.path.join(segment_dir, f"partition-{p:03d}")
                slice_engine.save(path, compact=True)
                store_dirs[p] = path
        fault_schedules = fault_schedules or {}
        self._specs: List[List[WorkerSpec]] = []
        for p in range(partitions):
            replica_specs = []
            for r in range(replication):
                replica_specs.append(
                    WorkerSpec(
                        partition=p,
                        replica=r,
                        config=config,
                        key_encoding=key_encoding,
                        trajectories=[] if store_dirs[p] else slices[p],
                        owned_salts=self.owned_salts(p),
                        fault_schedule=fault_schedules.get(p),
                        store_dir=store_dirs[p],
                    )
                )
            self._specs.append(replica_specs)
        self._replicas: List[List[ReplicaHandle]] = []

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_engine(cls, engine: TraSS, **kwargs) -> "ServingCluster":
        """Shard an existing single-process engine's dataset."""
        trajectories = [
            (record.tid, tuple(record.points))
            for record in engine.store.all_records()
        ]
        return cls(
            engine.config, engine.store.key_encoding, trajectories, **kwargs
        )

    @classmethod
    def from_trajectories(
        cls, trajectories, config, key_encoding="integer", **kwargs
    ) -> "ServingCluster":
        data = [(t.tid, tuple(t.points)) for t in trajectories]
        return cls(config, key_encoding, data, **kwargs)

    def _partition_of(self, tid: str) -> int:
        return shard_of(tid, self.config.shards) % self.partitions

    def owned_salts(self, partition: int) -> Tuple[int, ...]:
        return tuple(
            s
            for s in range(self.config.shards)
            if s % self.partitions == partition
        )

    @property
    def pruner(self):
        return self._plan_engine.pruner

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingCluster":
        """Spawn every replica and wait for all of them to come up."""
        if self._started:
            return self
        self._replicas = [
            [self.supervisor.spawn(spec) for spec in replica_specs]
            for replica_specs in self._specs
        ]
        deadline = time.monotonic() + self.startup_timeout
        pings = []
        for handles in self._replicas:
            for handle in handles:
                request = Request(self._next_id(), KIND_PING)
                handle.conn.send(request)
                pings.append((handle, request.id))
        try:
            for handle, request_id in pings:
                self._await_ping(handle, request_id, deadline)
        except ClusterError:
            self.stop()
            raise
        self._started = True
        return self

    def _await_ping(
        self, handle: ReplicaHandle, request_id: int, deadline: float
    ) -> None:
        """Block until ``handle`` answers its start-up ping, speaking
        this coordinator's protocol version; :class:`ClusterError`
        otherwise."""
        worker = f"worker p{handle.partition}r{handle.replica}"
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not handle.conn.poll(remaining):
            raise ClusterError(
                f"{worker} did not come up within {self.startup_timeout}s"
            )
        try:
            reply = handle.conn.recv()
        except (EOFError, OSError):
            raise ClusterError(f"{worker} died during startup")
        if reply.id != request_id or not reply.ok:
            raise ClusterError(f"{worker} failed its startup ping: {reply!r}")
        version = reply.payload.get("protocol")
        if version != PROTOCOL_VERSION:
            raise ClusterError(
                f"{worker} speaks protocol version {version!r}, this "
                f"coordinator speaks {PROTOCOL_VERSION}"
            )

    def stop(self) -> None:
        self.supervisor.stop_all()
        self._replicas = []
        self._started = False

    def __enter__(self) -> "ServingCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _next_id(self) -> int:
        self._next_request_id += 1
        return self._next_request_id

    def _make_request(self, kind: str, payload: dict) -> Request:
        """A query request, trace-stamped when the coordinator traces.

        The trace context rides the request across the pipe; a worker
        that sees one records its handler under a real tracer and ships
        the span subtree back on the reply.  Untraced coordinators send
        ``trace=None`` and workers stay on their zero-cost noop path.
        """
        request = Request(self._next_id(), kind, payload)
        if self.tracer is not NULL_TRACER:
            request.trace = TraceContext(trace_id=f"q{request.id}")
        return request

    def _require_started(self) -> None:
        if not self._started:
            raise ClusterError("cluster is not started (call start())")

    # ------------------------------------------------------------------
    # Chaos / test hooks
    # ------------------------------------------------------------------
    def replica(self, partition: int, replica: int = 0) -> ReplicaHandle:
        return self._replicas[partition][replica]

    def kill_replica(self, partition: int, replica: int = 0) -> None:
        """SIGKILL a worker process (out-of-band chaos)."""
        self.replica(partition, replica).kill()

    def crash_replica_inband(
        self, partition: int, replica: int = 0
    ) -> None:
        """Queue a crash directive: the worker dies — exactly like a
        kill — when its FIFO reaches the directive, i.e. deterministic
        death *mid-workload* after everything queued before it."""
        handle = self.replica(partition, replica)
        handle.conn.send(Request(self._next_id(), KIND_CRASH))

    def stall_replica(
        self, partition: int, replica: int = 0, seconds: float = 1.0
    ) -> None:
        """Queue a straggler directive (the hedging drill)."""
        handle = self.replica(partition, replica)
        handle.conn.send(
            Request(self._next_id(), KIND_STALL, {"seconds": seconds})
        )

    # ------------------------------------------------------------------
    # Replica selection / failure accounting
    # ------------------------------------------------------------------
    def _eligible_replica(
        self, partition: int, tried: set
    ) -> Optional[Tuple[int, ReplicaHandle]]:
        """The first live, breaker-closed, untried replica of a
        partition; dead replicas are replaced through the supervisor
        (restart budget permitting) before being considered."""
        now = time.monotonic()
        handles = self._replicas[partition]
        for slot in range(len(handles)):
            handle = handles[slot]
            if handle in tried:
                continue
            if not handle.alive():
                replacement = self.supervisor.restart(handle)
                if replacement is None:
                    continue
                handles[slot] = replacement
                handle = replacement
            if self.breaker.is_open((partition, slot), now):
                self.counters["breaker_short_circuits"] += 1
                continue
            return slot, handle
        return None

    def _record_replica_failure(self, partition: int, slot: int) -> None:
        self.breaker.record_failure((partition, slot), time.monotonic())
        self.counters["failovers"] += 1

    # ------------------------------------------------------------------
    # Single-query scatter-gather (with hedging)
    # ------------------------------------------------------------------
    def _launch(self, flight: _Flight) -> None:
        while True:
            if flight.attempts >= self.max_attempts:
                flight.exhausted = True
                return
            pick = self._eligible_replica(flight.partition, flight.tried)
            if pick is None:
                flight.exhausted = True
                return
            slot, handle = pick
            flight.tried.add(handle)
            flight.attempts += 1
            try:
                handle.conn.send(flight.request)
            except (OSError, BrokenPipeError, ValueError):
                self._record_replica_failure(flight.partition, slot)
                continue
            flight.active[handle] = slot
            flight.attempt_started = time.monotonic()
            return

    def _hedge(self, flight: _Flight) -> None:
        flight.hedged = True
        if self.obs is not None:
            # How long the primary stalled before we gave up waiting —
            # the hedge-efficacy signal the doctor reads.
            self.obs.observe_slo(
                "hedge_wait", time.monotonic() - flight.attempt_started
            )
        if flight.attempts >= self.max_attempts:
            return
        pick = self._eligible_replica(flight.partition, flight.tried)
        if pick is None:
            return
        slot, handle = pick
        flight.tried.add(handle)
        flight.attempts += 1
        try:
            handle.conn.send(flight.request)
        except (OSError, BrokenPipeError, ValueError):
            self._record_replica_failure(flight.partition, slot)
            return
        flight.active[handle] = slot
        flight.hedge_handle = handle
        self.counters["hedges"] += 1

    def _drop_active(
        self, flight: _Flight, handle: ReplicaHandle, failed: bool
    ) -> None:
        slot = flight.active.pop(handle, None)
        if failed and slot is not None:
            self._record_replica_failure(flight.partition, slot)
        if not flight.active and not flight.done:
            self._launch(flight)

    def _scatter(self, kind: str, payload: dict) -> Dict[int, _Flight]:
        """Fan one request out to every partition and gather replies,
        handling hedges, failover, timeouts and dead workers."""
        self._require_started()
        flights = {
            p: _Flight(p, self._make_request(kind, payload))
            for p in range(self.partitions)
        }
        self.counters["requests"] += 1
        for flight in flights.values():
            self._launch(flight)

        while True:
            live = [
                f
                for f in flights.values()
                if not f.done and not f.exhausted
            ]
            if not live:
                break
            now = time.monotonic()
            next_deadline = min(
                f.attempt_started + self.request_timeout for f in live
            )
            if self.hedge_delay_seconds is not None:
                for f in live:
                    if not f.hedged:
                        next_deadline = min(
                            next_deadline,
                            f.attempt_started + self.hedge_delay_seconds,
                        )
            conn_map = {}
            for f in live:
                for handle in f.active:
                    conn_map[handle.conn] = (f, handle)
            ready = (
                _mp_wait(list(conn_map), max(0.0, next_deadline - now))
                if conn_map
                else []
            )
            for conn in ready:
                flight, handle = conn_map[conn]
                if flight.done or handle not in flight.active:
                    continue
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    self._drop_active(flight, handle, failed=True)
                    continue
                if reply.id != flight.request.id:
                    self.counters["stale_replies"] += 1
                    continue
                if reply.ok:
                    slot = flight.active[handle]
                    self.breaker.record_success((flight.partition, slot))
                    flight.reply = reply
                    flight.done = True
                    flight.winner_slot = slot
                    flight.service_seconds = (
                        time.monotonic() - flight.attempt_started
                    )
                    if self.obs is not None:
                        self.obs.absorb_reply(flight.partition, slot, reply)
                        self.obs.observe_partition_service(
                            flight.partition, flight.service_seconds
                        )
                    # A losing hedge copy will answer later; its reply
                    # drains as stale on the next use of that pipe.
                    flight.active.clear()
                    if flight.hedged and handle is flight.hedge_handle:
                        self.counters["hedge_wins"] += 1
                elif error_is_transient(reply.error):
                    self.counters["worker_errors"] += 1
                    self._drop_active(flight, handle, failed=True)
                else:
                    self.counters["worker_errors"] += 1
                    flight.reply = reply
                    flight.done = True
                    flight.active.clear()
            now = time.monotonic()
            for flight in flights.values():
                if flight.done or flight.exhausted or not flight.active:
                    continue
                if now - flight.attempt_started >= self.request_timeout:
                    for handle in list(flight.active):
                        self._drop_active(flight, handle, failed=True)
                elif (
                    self.hedge_delay_seconds is not None
                    and not flight.hedged
                    and now - flight.attempt_started
                    >= self.hedge_delay_seconds
                ):
                    self._hedge(flight)
        self.last_fanout = [
            {
                "partition": p,
                "replica": flight.winner_slot,
                "attempts": flight.attempts,
                "hedged": flight.hedged,
                "reached": flight.done,
            }
            for p, flight in sorted(flights.items())
        ]
        return flights

    # ------------------------------------------------------------------
    # Pipelined batch scatter (throughput path)
    # ------------------------------------------------------------------
    def _batch_fail(self, state: _PartitionBatch) -> None:
        if state.slot is not None:
            self._record_replica_failure(state.partition, state.slot)
        # Unanswered requests go back to the head of the queue in their
        # original order; the next replica re-executes them against an
        # identical store, so answers are unchanged.
        while state.inflight:
            state.queue.appendleft(state.inflight.pop())
        state.handle = None
        state.slot = None

    def _batch_pick(self, state: _PartitionBatch) -> None:
        if state.attempts >= self.max_attempts:
            state.exhausted = True
            return
        pick = self._eligible_replica(state.partition, state.tried)
        if pick is None:
            state.exhausted = True
            return
        state.slot, state.handle = pick[0], pick[1]
        state.tried.add(state.handle)
        state.attempts += 1
        state.last_activity = time.monotonic()

    def _batch_scatter(
        self, requests_by_partition: Dict[int, List[Request]]
    ) -> Dict[int, _PartitionBatch]:
        """Pump every partition's FIFO pipeline concurrently.

        At most :data:`BATCH_WINDOW` requests ride each pipe unanswered,
        so sends never block behind a busy worker while every worker
        always has a full window of queued work — the scaling path the
        serving bench measures.
        """
        self._require_started()
        states = {
            p: _PartitionBatch(p, requests)
            for p, requests in requests_by_partition.items()
        }
        while True:
            live = [s for s in states.values() if not s.finished]
            if not live:
                break
            for state in live:
                if state.handle is None:
                    self._batch_pick(state)
                    if state.exhausted:
                        continue
                while (
                    state.handle is not None
                    and len(state.inflight) < self.BATCH_WINDOW
                    and state.queue
                ):
                    request = state.queue[0]
                    try:
                        state.handle.conn.send(request)
                    except (OSError, BrokenPipeError, ValueError):
                        self._batch_fail(state)
                        break
                    state.queue.popleft()
                    state.inflight.append(request)
                    state.last_activity = time.monotonic()
            conn_map = {
                s.handle.conn: s
                for s in live
                if s.handle is not None and s.inflight
            }
            if not conn_map:
                continue
            now = time.monotonic()
            next_deadline = min(
                s.last_activity + self.request_timeout
                for s in conn_map.values()
            )
            ready = _mp_wait(list(conn_map), max(0.0, next_deadline - now))
            for conn in ready:
                state = conn_map[conn]
                if state.handle is None or state.handle.conn is not conn:
                    continue
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    self._batch_fail(state)
                    continue
                state.last_activity = time.monotonic()
                expected = {r.id for r in state.inflight}
                if reply.id not in expected:
                    self.counters["stale_replies"] += 1
                    continue
                skipped_over: List[Request] = []
                while state.inflight and state.inflight[0].id != reply.id:
                    # FIFO workers answer in order; a gap means replies
                    # were lost — requeue the skipped requests.
                    skipped_over.append(state.inflight.popleft())
                state.queue.extendleft(reversed(skipped_over))
                request = state.inflight.popleft()
                if reply.ok:
                    self.breaker.record_success(
                        (state.partition, state.slot)
                    )
                    state.results[request.id] = reply
                    if self.obs is not None:
                        self.obs.absorb_reply(
                            state.partition, state.slot, reply
                        )
                elif error_is_transient(reply.error):
                    self.counters["worker_errors"] += 1
                    state.queue.appendleft(request)
                    self._batch_fail(state)
                else:
                    self.counters["worker_errors"] += 1
                    state.results[request.id] = reply
            now = time.monotonic()
            for state in live:
                if (
                    state.handle is not None
                    and state.inflight
                    and now - state.last_activity >= self.request_timeout
                ):
                    self._batch_fail(state)
        return states

    # ------------------------------------------------------------------
    # Planning / merging
    # ------------------------------------------------------------------
    def _payload(
        self, kind: str, query, parameter, measure
    ) -> Tuple[dict, Optional[PruningResult], float]:
        """One query's wire payload, plus — for a threshold query — the
        plan the coordinator keeps (workers get only its ranges) and the
        seconds planning took."""
        payload = {
            "tid": query.tid,
            "points": list(query.points),
            QUERY_PARAMETER[kind]: parameter,
            "measure": measure.name,
        }
        if kind == KIND_TOPK:
            return payload, None, 0.0
        started = time.perf_counter()
        pruning = self.pruner.prune(query, parameter)
        payload["ranges"] = [(r.start, r.stop) for r in pruning.ranges]
        return payload, pruning, time.perf_counter() - started

    def _skipped_spans(
        self,
        partition: int,
        wire_ranges: Optional[List[Tuple[int, int]]],
    ) -> List[ScanRange]:
        """Exactly the row-key ranges an unreachable partition would
        have scanned: the planned ranges mapped onto its owned salts,
        or — for top-k, which plans adaptively inside each worker — the
        partition's whole salt spans."""
        if wire_ranges is not None:
            ranges = [IndexRange(s, t) for s, t in wire_ranges]
            return self._plan_engine.store.scan_ranges_for(
                ranges, shards=self.owned_salts(partition)
            )
        spans = []
        for salt in self.owned_salts(partition):
            stop = bytes([salt + 1]) if salt < 255 else None
            spans.append(ScanRange(bytes([salt]), stop))
        return spans

    def _merge(
        self,
        kind: str,
        parameter,
        partials: List[object],
        skipped: List[ScanRange],
        pruning: Optional[PruningResult],
        pruning_seconds: float,
        wall_seconds: float,
    ):
        """Fold the reached partitions' results (in partition order)
        into the single-process result: disjoint union of answers for a
        threshold query, the k smallest ``(distance, tid)`` for top-k;
        the accounting sums, and ``skipped`` — the ranges unreachable
        partitions left unscanned — lands in the scan report."""
        report: Optional[ScanReport] = None
        filter_stats: Optional[LocalFilterStats] = None
        for part in partials:
            if part.resilience is not None:
                if report is None:
                    report = ScanReport()
                report.merge_from(part.resilience)
            if part.filter_stats is not None:
                if filter_stats is None:
                    filter_stats = LocalFilterStats()
                filter_stats.merge_from(part.filter_stats)
        if skipped:
            if report is None:
                report = ScanReport()
            report.ranges_total += len(skipped)
            report.skipped_ranges.extend(skipped)
        candidates = sum(part.candidates for part in partials)
        retrieved = sum(part.retrieved_rows for part in partials)
        if kind == KIND_THRESHOLD:
            answers: Dict[str, float] = {}
            for part in partials:
                answers.update(part.answers)
            return ThresholdSearchResult(
                answers=answers,
                candidates=candidates,
                retrieved_rows=retrieved,
                pruning=pruning,
                pruning_seconds=pruning_seconds,
                scan_seconds=wall_seconds,
                refine_seconds=0.0,
                resilience=report,
                filter_stats=filter_stats,
            )
        merged = sorted(a for part in partials for a in part.answers)
        return TopKSearchResult(
            answers=merged[:parameter],
            candidates=candidates,
            retrieved_rows=retrieved,
            units_scanned=sum(part.units_scanned for part in partials),
            elements_expanded=sum(part.elements_expanded for part in partials),
            total_seconds=wall_seconds,
            resilience=report,
            filter_stats=filter_stats,
        )

    def _finish(self, result, skipped: List[ScanRange], kind: str):
        if skipped:
            self.counters["degraded_queries"] += 1
            if not self.degraded_mode:
                raise DegradedResult(
                    f"{kind} query lost {len(skipped)} key range(s) to "
                    "unreachable partitions (enable degraded_mode to "
                    "accept partial answers)",
                    result=result,
                    skipped_ranges=skipped,
                )
        return result

    # ------------------------------------------------------------------
    # Public query API
    # ------------------------------------------------------------------
    def threshold_search(
        self, query, eps: float, measure=None, tenant: str = "default"
    ) -> ThresholdSearchResult:
        return self._serve(
            KIND_THRESHOLD, [query], eps, measure, tenant, pipelined=False
        )[0]

    def topk_search(
        self, query, k: int, measure=None, tenant: str = "default"
    ) -> TopKSearchResult:
        return self._serve(
            KIND_TOPK, [query], k, measure, tenant, pipelined=False
        )[0]

    def threshold_search_many(
        self, queries, eps, measure=None, tenant: str = "default"
    ) -> List[ThresholdSearchResult]:
        """Answer many threshold queries over pipelined worker FIFOs.

        Results align positionally with ``queries`` and match
        per-query :meth:`threshold_search` answers exactly; admission
        charges the batch as one request.
        """
        return self._serve(
            KIND_THRESHOLD, queries, eps, measure, tenant, pipelined=True
        )

    def topk_search_many(
        self, queries, k: int, measure=None, tenant: str = "default"
    ) -> List[TopKSearchResult]:
        """Batch top-k over the same pipelined FIFO transport."""
        return self._serve(
            KIND_TOPK, queries, k, measure, tenant, pipelined=True
        )

    def _serve(
        self, kind: str, queries, parameter, measure, tenant, pipelined: bool
    ) -> list:
        """The one way a query of ``kind`` is served: validate -> admit
        -> build each query's payload (planning threshold queries) ->
        scatter -> per query, split reached from unreachable partitions
        and merge -> :meth:`_finish`.

        ``pipelined`` picks the transport: one hedged request per
        partition (:meth:`_scatter`, single queries) or a windowed FIFO
        pipeline per partition (:meth:`_batch_scatter`, batches).
        """
        if kind == KIND_THRESHOLD:
            queries, parameters = normalise_thresholds(queries, parameter)
        else:
            check_k(parameter)
            queries = list(queries)
            parameters = [int(parameter)] * len(queries)
        resolved = self._plan_engine._resolve_measure(measure)
        if not queries:
            return []
        query_started = time.perf_counter()
        self.admission.admit(tenant)
        if self.obs is not None:
            self.obs.observe_slo(
                "admission_wait", time.perf_counter() - query_started
            )
        try:
            if pipelined:
                root_span = self.tracer.span(
                    "serve.query_batch", kind=kind, queries=len(queries)
                )
            else:
                root_span = self.tracer.span(
                    "serve.query",
                    kind=kind,
                    tid=queries[0].tid,
                    **{QUERY_PARAMETER[kind]: parameters[0]},
                )
            with root_span as root:
                plans = [
                    self._payload(kind, query, value, resolved)
                    for query, value in zip(queries, parameters)
                ]
                wall, replies = self._gather(
                    kind, [payload for payload, _, _ in plans], pipelined
                )
                if self.obs is not None:
                    self.obs.observe_slo("fanout", wall)
                merged = []
                lost = set()
                for (payload, pruning, pruning_seconds), value, row in zip(
                    plans, parameters, replies
                ):
                    partials = []
                    skipped: List[ScanRange] = []
                    for partition, reply in sorted(row.items()):
                        if reply is None:
                            lost.add(partition)
                            skipped.extend(
                                self._skipped_spans(
                                    partition, payload.get("ranges")
                                )
                            )
                        elif reply.ok:
                            partials.append(reply.payload)
                        else:
                            raise decode_error(reply.error)
                    merge_started = time.perf_counter()
                    result = self._merge(
                        kind,
                        value,
                        partials,
                        skipped,
                        pruning,
                        pruning_seconds,
                        wall / len(queries),
                    )
                    if self.obs is not None:
                        self.obs.observe_slo(
                            "merge", time.perf_counter() - merge_started
                        )
                    merged.append((result, skipped))
                root.set_attrs(
                    answers=sum(len(r.answers) for r, _ in merged),
                    partitions=self.partitions,
                    unreachable=len(lost),
                )
            seconds = (time.perf_counter() - query_started) / len(queries)
            results = []
            for result, skipped in merged:
                self.counters[f"{kind}_queries"] += 1
                if self.obs is not None:
                    self.obs.observe_query(seconds, ok=not skipped)
                results.append(self._finish(result, skipped, kind))
            return results
        finally:
            self.admission.release()

    def _gather(
        self, kind: str, payloads: List[dict], pipelined: bool
    ) -> Tuple[float, List[Dict[int, Optional[Reply]]]]:
        """Scatter the payloads over the transport the call shape picks.
        Returns the scatter's wall seconds and, per query,
        ``{partition: its settling reply}`` — ``None`` where the
        partition stayed unreachable."""
        if not pipelined:
            started = time.perf_counter()
            flights = self._scatter(kind, payloads[0])
            wall = time.perf_counter() - started
            self._trace_flights(flights)
            return wall, [{p: f.reply for p, f in flights.items()}]
        self.counters["requests"] += 1
        requests = {
            p: [self._make_request(kind, payload) for payload in payloads]
            for p in range(self.partitions)
        }
        started = time.perf_counter()
        streams = self._batch_scatter(requests)
        wall = time.perf_counter() - started
        self._trace_batch(streams)
        return wall, [
            {
                p: stream.results.get(stream.requests[i].id)
                for p, stream in streams.items()
            }
            for i in range(len(payloads))
        ]

    def _trace_flights(self, flights: Dict[int, _Flight]) -> None:
        """One ``serve.partition`` span per flight; a traced reply's
        worker subtree is grafted under it, stitching the coordinator
        and worker halves of the query into a single cross-process
        tree.  Grafted durations are the worker's own measurements —
        worker clocks never mix with the coordinator clock."""
        if self.tracer is NULL_TRACER:
            return
        for partition, flight in sorted(flights.items()):
            with self.tracer.span(
                "serve.partition", partition=partition
            ) as span:
                span.set_attrs(
                    attempts=flight.attempts,
                    hedged=flight.hedged,
                    reached=flight.done,
                    replica=flight.winner_slot,
                )
            reply = flight.reply
            if reply is not None and reply.spans is not None:
                graft_span_dict(self.tracer, reply.spans, span)

    def _trace_batch(self, states: Dict[int, _PartitionBatch]) -> None:
        """The batch analogue of :meth:`_trace_flights`: one
        ``serve.partition`` span per pipelined stream, with every
        traced reply's worker subtree grafted under it in request
        (FIFO) order."""
        if self.tracer is NULL_TRACER:
            return
        for partition, state in sorted(states.items()):
            with self.tracer.span(
                "serve.partition", partition=partition
            ) as span:
                span.set_attrs(
                    attempts=state.attempts,
                    reached=not state.exhausted,
                    replica=state.slot,
                    requests=len(state.requests),
                )
            for request in state.requests:
                reply = state.results.get(request.id)
                if reply is not None and reply.spans is not None:
                    graft_span_dict(self.tracer, reply.spans, span)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def heartbeat(self, timeout: float = 10.0) -> int:
        """Poll every live replica for its observability snapshot
        (cumulative ``IOMetrics``, metrics registry, heatmap grid,
        slow-query log) and fold the latest into the cluster aggregate.
        Returns how many workers answered; a no-op (0) when the cluster
        was built without ``observability``.

        Heartbeats ride the same FIFO pipes as queries, so polling an
        idle cluster is safe; dead or unreachable workers are skipped
        rather than restarted (the query path owns failover).
        """
        if self.obs is None:
            return 0
        self._require_started()
        polled = 0
        for partition, handles in enumerate(self._replicas):
            for slot, handle in enumerate(handles):
                if not handle.alive():
                    continue
                request = Request(self._next_id(), KIND_STATS)
                try:
                    handle.conn.send(request)
                except (OSError, BrokenPipeError, ValueError):
                    continue
                deadline = time.monotonic() + timeout
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not handle.conn.poll(remaining):
                        break
                    try:
                        reply = handle.conn.recv()
                    except (EOFError, OSError):
                        break
                    if reply.id != request.id:
                        # A losing hedge copy's late answer draining out.
                        self.counters["stale_replies"] += 1
                        continue
                    if reply.ok:
                        self.obs.absorb_heartbeat(
                            partition, slot, reply.payload
                        )
                        polled += 1
                    break
        return polled

    def io_totals(self) -> Dict[str, int]:
        """Cluster-wide ``IOMetrics`` rollup (sum of every successful
        reply's counter delta); empty without ``observability``."""
        return self.obs.io_totals() if self.obs is not None else {}

    def cluster_heatmap(self):
        """The heat-conserving merge of the latest per-worker heatmap
        grids; ``None`` without ``observability`` or before the first
        heartbeat delivers a grid."""
        if self.obs is None:
            return None
        return self.obs.cluster_heatmap()

    def doctor(self):
        """Cluster-scoped advisor: evidence-cited recommendations from
        the aggregated serving metrics."""
        from repro.obs.advisor import diagnose_cluster

        return diagnose_cluster(self)

    def stats(self) -> Dict[str, object]:
        base: Dict[str, object] = {
            "partitions": self.partitions,
            "replication": self.replication,
            "started": self._started,
            "counters": dict(self.counters),
            "worker_restarts": self.supervisor.total_restarts,
            "breaker": self.breaker.snapshot(),
            "admission": self.admission.snapshot(),
        }
        if self.obs is not None:
            if self._started:
                try:
                    self.heartbeat()
                except ClusterError:
                    pass
            base["observability"] = self.obs.snapshot()
        return base
