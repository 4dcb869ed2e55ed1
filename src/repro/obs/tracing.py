"""Span-based tracing for the query pipeline.

One query produces one span tree: a root ``query.threshold`` /
``query.topk`` span with ``plan`` / ``scan`` / ``refine`` (or per-unit)
children, and one ``scan.range`` grandchild per key range the executor
ran — carrying retries, breaker rejections, cache hits and the thread
that executed it.  Spans hold attributes (set once, rendered in
EXPLAIN ANALYZE) and events (timestamped occurrences, e.g. per-lemma
filter rejections).

Two tracer implementations share the interface:

* :data:`NULL_TRACER` — the default.  Every ``span()`` call returns the
  shared :data:`NULL_SPAN` singleton whose methods are empty; no
  allocation, no locking, no clock reads.  Instrumented code therefore
  costs one attribute load and a truthiness check when tracing is off —
  the zero-overhead-when-off contract.
* :class:`Tracer` — records real spans.  The active span is tracked on
  a *per-thread* stack; a span opened on another thread passes its
  parent explicitly (``span(parent=...)``), and ``scan.range`` spans
  carry their ``plan.index``.

The clock is injectable.  Query paths use the executor's
``trace_clock`` — wall time plus virtual charges normally, *purely
virtual* time under fault injection — so chaos-run span durations are a
deterministic function of ``(seed, workload)``.

Tracing is observational only: no instrumented code path writes to
:class:`~repro.kvstore.metrics.IOMetrics` or changes control flow, so a
traced query returns byte-identical answers and counters to an
untraced one.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class _NoopSpan:
    """The do-nothing span handed out when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attr(self, name: str, value: Any) -> None:
        pass

    def set_attrs(self, **attrs: Any) -> None:
        pass

    def add_event(self, name: str, **attrs: Any) -> None:
        pass

    def set_duration(self, seconds: float) -> None:
        pass

    @property
    def duration(self) -> float:
        return 0.0


#: shared no-op span; every ``NoopTracer.span()`` call returns it
NULL_SPAN = _NoopSpan()


class NoopTracer:
    """Tracing disabled: every operation is free and returns nothing."""

    enabled = False

    def span(
        self, name: str, parent: Optional["Span"] = None, **attrs: Any
    ) -> _NoopSpan:
        return NULL_SPAN

    @property
    def current_span(self) -> None:
        return None

    def add_event(self, name: str, **attrs: Any) -> None:
        pass

    def traces(self) -> List["Span"]:
        return []


#: the default tracer on every engine and executor
NULL_TRACER = NoopTracer()


class Span:
    """One traced operation: name, time range, attributes, events,
    children.  Thread-safe: children and events may be appended from
    other threads (``span(parent=...)``)."""

    #: cap on recorded events per span (per-record filter events can be
    #: plentiful on large scans); overflow is counted, not stored
    MAX_EVENTS = 10_000

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent: Optional["Span"] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        #: (clock time, name, attrs) triples
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []
        self.children: List["Span"] = []
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.dropped_events = 0
        self._duration_override: Optional[float] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Context-manager protocol: entering activates the span on the
    # current thread's stack; exiting closes it.
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self.tracer._activate(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.set_attr("error", f"{exc_type.__name__}: {exc}")
        self.tracer._deactivate(self)
        return False

    # ------------------------------------------------------------------
    def set_attr(self, name: str, value: Any) -> None:
        self.attrs[name] = value

    def set_attrs(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def add_event(self, name: str, **attrs: Any) -> None:
        with self._lock:
            if len(self.events) >= self.MAX_EVENTS:
                self.dropped_events += 1
                return
            self.events.append((self.tracer.clock(), name, attrs))

    def set_duration(self, seconds: float) -> None:
        """Override the measured duration (e.g. a worker's span stitched
        into the coordinator's tree keeps the worker's own duration)."""
        self._duration_override = float(seconds)

    @property
    def duration(self) -> float:
        if self._duration_override is not None:
            return self._duration_override
        if self.end is None:
            return 0.0
        return self.end - self.start

    # ------------------------------------------------------------------
    def to_dict(self, include_events: bool = True) -> Dict[str, Any]:
        """A JSON-serialisable view of this span's subtree."""
        out: Dict[str, Any] = {
            "name": self.name,
            "duration_seconds": self.duration,
            "attrs": dict(self.attrs),
            "children": [
                child.to_dict(include_events) for child in self.children
            ],
        }
        if include_events:
            out["events"] = [
                {"at": at, "name": name, "attrs": dict(attrs)}
                for at, name, attrs in self.events
            ]
            if self.dropped_events:
                out["dropped_events"] = self.dropped_events
        return out

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every span named ``name`` in this subtree."""
        return [span for span in self.walk() if span.name == name]


def graft_span_dict(
    tracer: "Tracer",
    data: Dict[str, Any],
    parent: Optional["Span"] = None,
) -> "Span":
    """Rebuild a serialised span subtree (:meth:`Span.to_dict` output)
    and graft it under ``parent`` (or as a new root when ``None``).

    This is the coordinator half of cross-process trace propagation:
    workers ship their completed subtrees as plain dicts over the pipe
    and the coordinator stitches them into its own tree.  Durations are
    carried verbatim as overrides (worker clocks — virtual time under
    fault injection — never mix with the coordinator's clock), so a
    stitched chaos trace stays a deterministic function of
    ``(seed, workload)``.
    """
    span = Span(tracer, data["name"], parent, data.get("attrs"))
    span.set_duration(float(data.get("duration_seconds", 0.0)))
    for event in data.get("events", ()):
        span.events.append(
            (
                float(event.get("at", 0.0)),
                event["name"],
                dict(event.get("attrs", {})),
            )
        )
    span.dropped_events = int(data.get("dropped_events", 0))
    for child in data.get("children", ()):
        graft_span_dict(tracer, child, span)
    if parent is None:
        with tracer._lock:
            tracer._roots.append(span)
    else:
        with parent._lock:
            parent.children.append(span)
    return span


class Tracer:
    """Records spans into per-query trees.

    ``clock`` is any ``() -> float`` monotonic-ish callable; engines
    pass the executor's ``trace_clock`` so durations stay deterministic
    under fault injection (virtual time only).
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock: Callable[[], float] = (
            clock if clock is not None else time.perf_counter
        )
        self._roots: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    def span(
        self, name: str, parent: Optional[Span] = None, **attrs: Any
    ) -> Span:
        """Create (but not yet activate) a span.

        With no explicit ``parent`` the current thread's active span is
        the parent; code running on another thread passes the span to
        attach to explicitly.  Use as a context manager to time it.
        """
        if parent is None:
            parent = self.current_span
        span = Span(self, name, parent, attrs)
        if parent is None:
            with self._lock:
                self._roots.append(span)
        else:
            with parent._lock:
                parent.children.append(span)
        return span

    def _activate(self, span: Span) -> None:
        span.start = self.clock()
        self._stack().append(span)

    def _deactivate(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def add_event(self, name: str, **attrs: Any) -> None:
        """Attach an event to the current thread's active span (no-op
        when none is active)."""
        span = self.current_span
        if span is not None:
            span.add_event(name, **attrs)

    # ------------------------------------------------------------------
    def traces(self) -> List[Span]:
        """Every root span recorded so far (one per traced query)."""
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_attr(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_span_tree(
    span: Span,
    indent: str = "",
    max_children: int = 16,
    show_events: bool = False,
) -> str:
    """A human-readable tree of one span and its descendants.

    ``max_children`` caps the rendered children per span (a wide plan
    can hold hundreds of ``scan.range`` spans); the elision is stated.
    """
    lines: List[str] = []
    _render(span, lines, "", True, True, max_children, show_events)
    return "\n".join(lines)


def _render(
    span: Span,
    lines: List[str],
    prefix: str,
    is_last: bool,
    is_root: bool,
    max_children: int,
    show_events: bool,
) -> None:
    connector = "" if is_root else ("└─ " if is_last else "├─ ")
    attrs = "  ".join(
        f"{k}={_format_attr(v)}" for k, v in span.attrs.items()
    )
    extra = f"  [{len(span.events)} event(s)]" if span.events else ""
    lines.append(
        f"{prefix}{connector}{span.name}  "
        f"{span.duration * 1000.0:.3f} ms"
        f"{('  ' + attrs) if attrs else ''}{extra}"
    )
    child_prefix = prefix + ("" if is_root else ("   " if is_last else "│  "))
    if show_events:
        for at, name, evattrs in span.events:
            rendered = "  ".join(
                f"{k}={_format_attr(v)}" for k, v in evattrs.items()
            )
            lines.append(f"{child_prefix}· {name} {rendered}")
    children = span.children
    shown = children[:max_children]
    for i, child in enumerate(shown):
        last = i == len(shown) - 1 and len(children) <= max_children
        _render(
            child, lines, child_prefix, last, False, max_children, show_events
        )
    if len(children) > max_children:
        lines.append(
            f"{child_prefix}└─ … {len(children) - max_children} more "
            f"child span(s) elided"
        )
