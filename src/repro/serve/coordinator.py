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
* **planning** — the coordinator holds no rows, so it plans each
  threshold query once with the paper's data-free Algorithm 1 (a
  function of the query, the threshold and the index geometry only)
  and ships only the index-value ranges; workers map them onto their
  owned salts and drop the ranges their own slice proves empty.  A
  local engine's planner also skips what its store proves empty; the
  coordinator would need each partition's occupied values for that.
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

from repro.core.engine import QUERY_PARAMETER, TraSS
from repro.core.executor import CircuitBreaker, ScanReport
from repro.core.local_filter import LocalFilterStats
from repro.core.pruning import GlobalPruner, PruningResult, normalise_thresholds
from repro.core.storage import TrajectoryStore
from repro.core.threshold import ThresholdSearchResult
from repro.core.topk import TopKSearchResult, check_k
from repro.exceptions import ClusterError, DegradedResult
from repro.geometry.trajectory import Trajectory
from repro.index.ranges import IndexRange
from repro.kvstore.rowkey import shard_of
from repro.kvstore.table import ScanRange
from repro.measures.base import get_measure
from repro.obs.tracing import NULL_TRACER, graft_span_dict
from repro.serve.admission import AdmissionController
from repro.serve.obs import ClusterObservability
from repro.serve.protocol import (
    KIND_CRASH,
    KIND_PING,
    KIND_STALL,
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

#: what a successful reply of each checked kind must carry as payload
_PAYLOAD_TYPES = {
    KIND_THRESHOLD: ThresholdSearchResult,
    KIND_TOPK: TopKSearchResult,
    KIND_PING: dict,
}


def check_reply(kind: str, partition: int, reply: Reply) -> None:
    """Raise :class:`ClusterError` unless a successful ``kind`` reply
    carries what the coordinator reads from it: the kind's result object
    (a dict for a ping) and, on a query reply, a dict ``io_delta`` or
    none.  A worker's malformed answer then names its partition instead
    of surfacing as an ``AttributeError`` deep in a merge."""
    expected = _PAYLOAD_TYPES[kind]
    if not isinstance(reply.payload, expected):
        raise ClusterError(
            f"partition {partition} answered a {kind} request with a "
            f"{type(reply.payload).__name__} payload, not a "
            f"{expected.__name__}"
        )
    delta = reply.io_delta
    if kind != KIND_PING and delta is not None and not isinstance(delta, dict):
        raise ClusterError(
            f"partition {partition} answered a {kind} request with a "
            f"{type(delta).__name__} io_delta, not a dict"
        )


class _Leg:
    """One replica pipe carrying a partition's requests."""

    __slots__ = ("handle", "slot", "hedge", "inflight", "last_activity")

    def __init__(self, handle: ReplicaHandle, slot: int, hedge: bool):
        self.handle = handle
        self.slot = slot
        #: opened by a hedge rather than by a pick
        self.hedge = hedge
        #: ``(request, send time)`` of every request sent down this pipe
        #: and not yet settled, in FIFO order
        self.inflight: deque = deque()
        self.last_activity = time.monotonic()


class _Stream:
    """One partition's share of a call: its requests, pumped in order
    through a bounded window onto one replica at a time — two while a
    hedge races the first."""

    __slots__ = (
        "partition",
        "requests",
        "queue",
        "results",
        "legs",
        "tried",
        "attempts",
        "hedged",
        "hedge_won",
        "exhausted",
        "winner_slot",
    )

    def __init__(self, partition: int, requests: List[Request]):
        self.partition = partition
        self.requests = requests
        #: requests not yet sent (or sent to a replica that failed)
        self.queue = deque(requests)
        #: request id -> the reply that settled it: an answer, or a
        #: non-transient worker error
        self.results: Dict[int, Reply] = {}
        #: open replica pipes; new sends go to the last one
        self.legs: List[_Leg] = []
        self.tried: set = set()
        self.attempts = 0
        self.hedged = False
        self.hedge_won = False
        self.exhausted = False
        #: replica slot of the most recent answer
        self.winner_slot: Optional[int] = None

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
    WINDOW = 16
    #: seconds :meth:`start` waits for every replica's start-up ping
    STARTUP_TIMEOUT = 120.0
    #: consecutive failures that open a replica slot's circuit, and the
    #: seconds it then stays open — quicker than the engine's per-region
    #: breaker, because a failed slot has a sibling replica to fail over to
    BREAKER_FAILURES = 3
    BREAKER_COOLDOWN_SECONDS = 5.0

    def __init__(
        self,
        config,
        key_encoding: str,
        trajectories: Sequence[Tuple[str, tuple]],
        partitions: int = 2,
        replication: int = 1,
        request_timeout: float = 30.0,
        hedge_delay_seconds: Optional[float] = None,
        max_attempts: Optional[int] = None,
        degraded_mode: bool = False,
        admission: Optional[AdmissionController] = None,
        max_restarts: int = 3,
        tracer=None,
        segment_dir: Optional[str] = None,
        observability: bool = False,
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
        # accumulation) only exists when asked for — the
        # zero-cost-when-off contract leaves every hot-path guard a
        # single `is not None` check.
        self.obs: Optional[ClusterObservability] = (
            ClusterObservability() if observability else None
        )
        self.supervisor = ShardSupervisor(max_restarts=max_restarts)
        self.breaker = CircuitBreaker(
            failure_threshold=self.BREAKER_FAILURES,
            cooldown_seconds=self.BREAKER_COOLDOWN_SECONDS,
        )
        # An empty store supplies the index and the range -> row-key
        # mapping (for exact skipped-range accounting).  The pruner is
        # data-free: one reading this empty store's occupancy would plan
        # nothing.  Its plan is sound for every partition, whose
        # scan_ranges_for drops the ranges its slice holds no value in.
        self._plan_store = TrajectoryStore(config, key_encoding)
        self._pruner = GlobalPruner.from_config(
            self._plan_store.index, config, self._plan_store.metrics
        )
        self.measure = config.make_measure()
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
                slice_engine.save(path)
                store_dirs[p] = path
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
    def pruner(self) -> GlobalPruner:
        return self._pruner

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
        deadline = time.monotonic() + self.STARTUP_TIMEOUT
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
                f"{worker} did not come up within {self.STARTUP_TIMEOUT}s"
            )
        try:
            reply = self._recv(handle)
        except (EOFError, OSError):
            raise ClusterError(f"{worker} died during startup")
        if reply.id != request_id or not reply.ok:
            raise ClusterError(f"{worker} failed its startup ping: {reply!r}")
        check_reply(KIND_PING, handle.partition, reply)
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

    @staticmethod
    def _recv(handle: ReplicaHandle) -> Reply:
        """The next message on ``handle``'s pipe, which must be a
        :class:`Reply` (:class:`ClusterError` otherwise); a dead pipe
        raises ``EOFError`` / ``OSError`` for the caller to fail over."""
        reply = handle.conn.recv()
        if not isinstance(reply, Reply):
            raise ClusterError(
                f"worker p{handle.partition}r{handle.replica} sent a "
                f"malformed reply ({type(reply).__name__}, not a Reply)"
            )
        return reply

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
    # The transport: one pipelined stream per partition
    # ------------------------------------------------------------------
    def _scatter(
        self, requests_by_partition: Dict[int, List[Request]]
    ) -> Dict[int, _Stream]:
        """Deliver every partition's requests and gather the replies.

        A single query is a batch of one.  Each partition's requests
        stream in order down one replica pipe, at most :data:`WINDOW`
        of them unanswered, so sends never block behind a busy worker
        while the worker always has queued work.  A dead pipe, a
        transient worker error or ``request_timeout`` of silence fails
        the replica over: the requests only it carried go, in order, to
        the next pick.  With ``hedge_delay_seconds`` set, a stream whose
        replica stays silent that long is hedged once: its unanswered
        requests are re-sent to a second replica, which takes the
        stream's later sends too, and the first reply to each request
        wins.  A losing copy's late reply drains as stale on the next
        use of that pipe.
        """
        self._require_started()
        self.counters["requests"] += 1
        streams = {
            p: _Stream(p, requests)
            for p, requests in requests_by_partition.items()
        }
        while True:
            live = [s for s in streams.values() if not s.finished]
            if not live:
                break
            for stream in live:
                self._pump(stream)
            legs = {
                leg.handle.conn: (stream, leg)
                for stream in live
                for leg in stream.legs
                if leg.inflight
            }
            if not legs:
                continue
            deadline = min(
                self._wake_at(stream, leg) for stream, leg in legs.values()
            )
            timeout = max(0.0, deadline - time.monotonic())
            for conn in _mp_wait(list(legs), timeout):
                stream, leg = legs[conn]
                if leg in stream.legs:
                    self._receive(stream, leg)
            now = time.monotonic()
            for stream in live:
                for leg in list(stream.legs):
                    if (
                        leg.inflight
                        and now - leg.last_activity >= self.request_timeout
                    ):
                        self._fail(stream, leg)
                if (
                    self.hedge_delay_seconds is not None
                    and not stream.hedged
                    and stream.legs
                    and stream.legs[-1].inflight
                    and now - stream.legs[-1].last_activity
                    >= self.hedge_delay_seconds
                ):
                    self._hedge(stream, now)
        return streams

    def _wake_at(self, stream: _Stream, leg: _Leg) -> float:
        """When ``leg`` next needs attention: its timeout, or sooner the
        stream's hedge while the leg is the one taking sends."""
        wait = self.request_timeout
        if (
            self.hedge_delay_seconds is not None
            and not stream.hedged
            and leg is stream.legs[-1]
        ):
            wait = min(wait, self.hedge_delay_seconds)
        return leg.last_activity + wait

    def _open_leg(self, stream: _Stream, hedge: bool) -> Optional[_Leg]:
        """A pipe to the next eligible replica, within ``max_attempts``."""
        if stream.attempts >= self.max_attempts:
            return None
        pick = self._eligible_replica(stream.partition, stream.tried)
        if pick is None:
            return None
        slot, handle = pick
        stream.tried.add(handle)
        stream.attempts += 1
        leg = _Leg(handle, slot, hedge)
        stream.legs.append(leg)
        return leg

    def _pump(self, stream: _Stream) -> None:
        """Fill the newest pipe's window from the queue, picking a
        replica first when the stream has none (exhausted if none is
        left)."""
        if not stream.legs and self._open_leg(stream, hedge=False) is None:
            stream.exhausted = True
            return
        lead = stream.legs[-1]
        while stream.queue and len(lead.inflight) < self.WINDOW:
            if not self._send(stream, lead, stream.queue[0]):
                return
            stream.queue.popleft()

    def _send(self, stream: _Stream, leg: _Leg, request: Request) -> bool:
        try:
            leg.handle.conn.send(request)
        except (OSError, BrokenPipeError, ValueError):
            self._fail(stream, leg)
            return False
        leg.last_activity = time.monotonic()
        leg.inflight.append((request, leg.last_activity))
        return True

    def _hedge(self, stream: _Stream, now: float) -> None:
        stream.hedged = True
        primary = stream.legs[-1]
        if self.obs is not None:
            # How long the primary stalled before we gave up waiting.
            self.obs.observe_slo("hedge_wait", now - primary.last_activity)
        leg = self._open_leg(stream, hedge=True)
        if leg is None:
            return
        for request, _ in list(primary.inflight):
            if not self._send(stream, leg, request):
                return
        self.counters["hedges"] += 1

    def _fail(self, stream: _Stream, leg: _Leg) -> None:
        """Retire a failed pipe.  The requests no other pipe carries go
        back to the head of the queue in their original order; the next
        replica re-executes them against an identical store, so answers
        are unchanged."""
        stream.legs.remove(leg)
        self._record_replica_failure(stream.partition, leg.slot)
        self._requeue(stream, [request for request, _ in leg.inflight])

    @staticmethod
    def _requeue(stream: _Stream, requests: List[Request]) -> None:
        carried = {r.id for leg in stream.legs for r, _ in leg.inflight}
        stream.queue.extendleft(
            reversed([r for r in requests if r.id not in carried])
        )

    def _receive(self, stream: _Stream, leg: _Leg) -> None:
        try:
            reply = self._recv(leg.handle)
        except (EOFError, OSError):
            self._fail(stream, leg)
            return
        leg.last_activity = time.monotonic()
        ids = [request.id for request, _ in leg.inflight]
        if reply.id not in ids:
            # A settled hedge copy, a directive's acknowledgement or an
            # earlier call's late answer.
            self.counters["stale_replies"] += 1
            return
        position = ids.index(reply.id)
        if position:
            # FIFO workers answer in order; a gap means replies were
            # lost, so the skipped requests are sent again.
            skipped = [leg.inflight.popleft()[0] for _ in range(position)]
            self._requeue(stream, skipped)
        request, sent = leg.inflight.popleft()
        if not reply.ok:
            self.counters["worker_errors"] += 1
            if error_is_transient(reply.error):
                leg.inflight.appendleft((request, sent))
                self._fail(stream, leg)
                return
        stream.results[request.id] = reply
        if len(stream.legs) > 1:
            # The other copy's late reply will drain as stale; a pipe
            # with nothing left to answer closes unless it takes sends.
            lead = stream.legs[-1]
            for other in stream.legs:
                other.inflight = deque(
                    e for e in other.inflight if e[0] is not request
                )
            stream.legs = [
                g for g in stream.legs if g.inflight or g is lead
            ]
        if not reply.ok:
            return
        self.breaker.record_success((stream.partition, leg.slot))
        stream.winner_slot = leg.slot
        if leg.hedge and not stream.hedge_won:
            stream.hedge_won = True
            self.counters["hedge_wins"] += 1
        if self.obs is not None:
            self.obs.absorb_reply(stream.partition, leg.slot, reply)
            self.obs.observe_slo(
                "partition_service", leg.last_activity - sent
            )

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
        """The row-key ranges an unreachable partition left unscanned:
        the planned ranges mapped onto its owned salts, or — for top-k,
        which plans adaptively inside each worker — the partition's
        whole salt spans.  The coordinator holds no data, so it cannot
        tell which planned pairs are empty; it reports all of them."""
        if wire_ranges is not None:
            ranges = [IndexRange(s, t) for s, t in wire_ranges]
            return self._plan_store.planned_scan_ranges(
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
            # Partitions refine in parallel: the slowest one's refine
            # time is the phase's (never more than the query's share of
            # the wall, which a batch splits evenly), the rest the scan.
            refine = min(
                max((part.refine_seconds for part in partials), default=0.0),
                wall_seconds,
            )
            return ThresholdSearchResult(
                answers=answers,
                candidates=candidates,
                retrieved_rows=retrieved,
                pruning=pruning,
                pruning_seconds=pruning_seconds,
                scan_seconds=wall_seconds - refine,
                refine_seconds=refine,
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
        return self._serve(KIND_THRESHOLD, [query], eps, measure, tenant)[0]

    def topk_search(
        self, query, k: int, measure=None, tenant: str = "default"
    ) -> TopKSearchResult:
        return self._serve(KIND_TOPK, [query], k, measure, tenant)[0]

    def threshold_search_many(
        self, queries, eps, measure=None, tenant: str = "default"
    ) -> List[ThresholdSearchResult]:
        """Answer many threshold queries over pipelined worker FIFOs.

        Results align positionally with ``queries`` and match
        per-query :meth:`threshold_search` answers exactly; admission
        charges the batch as one request.
        """
        return self._serve(KIND_THRESHOLD, queries, eps, measure, tenant)

    def topk_search_many(
        self, queries, k: int, measure=None, tenant: str = "default"
    ) -> List[TopKSearchResult]:
        """Batch top-k over the same pipelined FIFO transport."""
        return self._serve(KIND_TOPK, queries, k, measure, tenant)

    def _serve(self, kind: str, queries, parameter, measure, tenant) -> list:
        """The one way a call of ``kind`` is served, a single query
        being a batch of one: validate -> admit -> build each query's
        payload (planning threshold queries) -> :meth:`_gather` -> per
        query, split reached from unreachable partitions and merge ->
        :meth:`_finish`.
        """
        if kind == KIND_THRESHOLD:
            queries, parameters = normalise_thresholds(queries, parameter)
        else:
            check_k(parameter)
            queries = list(queries)
            parameters = [int(parameter)] * len(queries)
        resolved = self.measure if measure is None else get_measure(measure)
        if not queries:
            return []
        query_started = time.perf_counter()
        self.admission.admit(tenant)
        if self.obs is not None:
            self.obs.observe_slo(
                "admission_wait", time.perf_counter() - query_started
            )
        try:
            if len(queries) == 1:
                root_span = self.tracer.span(
                    "serve.query",
                    kind=kind,
                    tid=queries[0].tid,
                    **{QUERY_PARAMETER[kind]: parameters[0]},
                )
            else:
                root_span = self.tracer.span(
                    "serve.query_batch", kind=kind, queries=len(queries)
                )
            with root_span as root:
                plans = [
                    self._payload(kind, query, value, resolved)
                    for query, value in zip(queries, parameters)
                ]
                wall, replies = self._gather(
                    kind, [payload for payload, _, _ in plans]
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
                            check_reply(kind, partition, reply)
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
        self, kind: str, payloads: List[dict]
    ) -> Tuple[float, List[Dict[int, Optional[Reply]]]]:
        """Send every payload to every partition.  Returns the scatter's
        wall seconds and, per query, ``{partition: its settling reply}``
        — ``None`` where the partition stayed unreachable."""
        requests = {
            p: [self._make_request(kind, payload) for payload in payloads]
            for p in range(self.partitions)
        }
        started = time.perf_counter()
        streams = self._scatter(requests)
        wall = time.perf_counter() - started
        self._trace(streams)
        return wall, [
            {
                p: stream.results.get(stream.requests[i].id)
                for p, stream in streams.items()
            }
            for i in range(len(payloads))
        ]

    def _trace(self, streams: Dict[int, _Stream]) -> None:
        """One ``serve.partition`` span per stream, with every traced
        reply's worker subtree grafted under it in request (FIFO) order,
        stitching the coordinator and worker halves of the call into a
        single cross-process tree.  Grafted durations are the worker's
        own measurements — worker clocks never mix with the coordinator
        clock."""
        if self.tracer is NULL_TRACER:
            return
        for partition, stream in sorted(streams.items()):
            with self.tracer.span(
                "serve.partition", partition=partition
            ) as span:
                span.set_attrs(
                    attempts=stream.attempts,
                    hedged=stream.hedged,
                    reached=not stream.exhausted,
                    replica=stream.winner_slot,
                    requests=len(stream.requests),
                )
            for request in stream.requests:
                reply = stream.results.get(request.id)
                if reply is not None and reply.spans is not None:
                    graft_span_dict(self.tracer, reply.spans, span)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def io_totals(self) -> Dict[str, int]:
        """Cluster-wide ``IOMetrics`` rollup (sum of every successful
        reply's counter delta); empty without ``observability``."""
        return self.obs.io_totals() if self.obs is not None else {}

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
            base["observability"] = self.obs.snapshot()
        return base
