"""Observability: query tracing, the metrics registry and EXPLAIN
ANALYZE.

Everything here is read-model machinery over the engine's existing
accounting: tracing is zero-overhead when off (the default
:data:`~repro.obs.tracing.NULL_TRACER` allocates nothing) and never
perturbs :class:`~repro.kvstore.metrics.IOMetrics`, so observed and
unobserved queries return byte-identical answers and counters.
"""

from repro.obs.explain import ExplainAnalyzeReport, explain_analyze
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    IO_METRIC_NAMES,
    MetricsRegistry,
    parse_prometheus,
    update_registry_from_cluster,
    update_registry_from_engine,
)
from repro.obs.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    NoopTracer,
    Span,
    Tracer,
    format_span_tree,
    graft_span_dict,
)

__all__ = [
    "Counter",
    "ExplainAnalyzeReport",
    "Gauge",
    "Histogram",
    "IO_METRIC_NAMES",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NoopTracer",
    "Span",
    "Tracer",
    "explain_analyze",
    "format_span_tree",
    "graft_span_dict",
    "parse_prometheus",
    "update_registry_from_cluster",
    "update_registry_from_engine",
]
