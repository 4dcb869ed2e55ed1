"""Wire protocol between the serving coordinator and shard workers.

One envelope each way: the coordinator sends :class:`Request` objects
down a ``multiprocessing`` pipe and the worker answers each with one
:class:`Reply` carrying the same ``id``.  Pipes already frame and
pickle messages, so the protocol stays declarative — dataclasses of
primitives, with a query reply's ``payload`` being the shard's ordinary
:class:`~repro.core.threshold.ThresholdSearchResult` /
:class:`~repro.core.topk.TopKSearchResult` over its own slice, which
the coordinator merges.

Errors cross the boundary as ``(type name, message, transient)``
triples rather than pickled exceptions: the coordinator re-raises by
looking the name up in :mod:`repro.exceptions`, so failover policy
stays type-driven on both sides of the pipe without trusting arbitrary
pickled objects from a worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro import exceptions as _exceptions
from repro.exceptions import ClusterError, TransientError

#: stamped on every ping reply; ``ServingCluster.start`` refuses workers
#: that report another value.  3: query replies carry the ordinary
#: result object, with the request's ``io_delta`` beside it.  4: the
#: ``stats`` heartbeat kind is gone.
PROTOCOL_VERSION = 4

#: query kinds
KIND_THRESHOLD = "threshold"
KIND_TOPK = "topk"
KIND_PING = "ping"
#: directive kinds (tests and chaos drills)
KIND_STALL = "stall"
KIND_CRASH = "crash"
KIND_SHUTDOWN = "shutdown"


@dataclass(frozen=True)
class TraceContext:
    """Cross-process trace propagation: stamped on a :class:`Request`
    when the coordinator is tracing.

    ``trace_id`` identifies the query's scatter (the coordinator's
    request id); ``parent_span`` names the coordinator span the
    worker's subtree will be grafted under.  A worker that sees a trace
    context runs its handler under a recording tracer and ships the
    completed span subtree back on the :class:`Reply`; without one the
    worker's tracing stays at the zero-cost noop default.
    """

    trace_id: str
    parent_span: str = "serve.partition"
    #: ship per-record span events across the pipe (off by default —
    #: events can be plentiful and the envelope rides the hot path)
    include_events: bool = False


@dataclass
class Request:
    """One coordinator -> worker message."""

    id: int
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    #: non-None when the coordinator wants the worker's span subtree
    trace: Optional[TraceContext] = None


@dataclass
class Reply:
    """One worker -> coordinator message, matched to a request by id."""

    id: int
    ok: bool
    payload: Any = None
    #: ``(exception type name, message, transient?)`` when ``not ok``
    error: Optional[Tuple[str, str, bool]] = None
    #: the worker's completed span subtree (``Span.to_dict`` form) when
    #: the request carried a :class:`TraceContext`
    spans: Optional[Dict[str, Any]] = None
    #: query replies: the full ``IOMetrics`` counter delta of this
    #: request (field -> count), so coordinator-side accounting matches
    #: the single-process engine field-for-field
    io_delta: Optional[Dict[str, int]] = None


def encode_error(exc: BaseException) -> Tuple[str, str, bool]:
    """The wire form of a worker-side exception."""
    return (
        type(exc).__name__,
        str(exc),
        isinstance(exc, TransientError),
    )


def decode_error(error: Tuple[str, str, bool]) -> Exception:
    """Rebuild a worker error as the matching library exception.

    Unknown names (including non-repro exceptions raised inside a
    worker) come back as :class:`ClusterError` so the caller still gets
    a typed, catchable failure.
    """
    name, message, _transient = error
    cls = getattr(_exceptions, name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            return cls(message)
        except TypeError:
            pass
    return ClusterError(f"{name}: {message}")


def error_is_transient(error: Tuple[str, str, bool]) -> bool:
    return bool(error[2])
