"""Observability: tracing, the metrics registry and EXPLAIN ANALYZE.

The three invariants pinned here (DESIGN.md §8):

* tracing is zero-overhead when off and *never* perturbs answers or
  ``IOMetrics`` — traced and untraced runs are byte-identical;
* ``scan.range`` spans appear in plan order;
* under fault injection the tracer runs on purely virtual time, so
  chaos span durations are a deterministic function of
  ``(seed, workload)``.
"""

import json
import random
import threading

import pytest

from repro import SpaceBounds, TraSS, TraSSConfig, Trajectory
from repro.exceptions import QueryError
from repro.kvstore.faults import FaultInjector, FaultSchedule
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    parse_prometheus,
    update_registry_from_engine,
)
from repro.obs.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    format_span_tree,
)

BOUNDS = SpaceBounds(116.0, 39.5, 117.0, 40.5)


def make_walk(tid, rng, n_range=(5, 40)):
    x = rng.uniform(116.1, 116.9)
    y = rng.uniform(39.6, 40.4)
    points = [(x, y)]
    for _ in range(rng.randint(*n_range)):
        x += rng.uniform(-0.005, 0.005)
        y += rng.uniform(-0.005, 0.005)
        points.append((x, y))
    return Trajectory(tid, points)


def build_engine(plan_cache_size=0, **overrides):
    """A deterministic engine; plan cache off by default so repeated
    identical queries produce identical counter deltas."""
    rng = random.Random(11)
    data = [make_walk(f"t{i}", rng) for i in range(150)]
    cfg = TraSSConfig(
        bounds=BOUNDS,
        max_resolution=12,
        dp_tolerance=0.002,
        shards=4,
        plan_cache_size=plan_cache_size,
        **overrides,
    )
    return TraSS.build(data, cfg), data


@pytest.fixture(scope="module")
def obs_engine():
    return build_engine()


# ----------------------------------------------------------------------
# Tracer unit behaviour
# ----------------------------------------------------------------------
class TestTracer:
    def test_null_tracer_is_free_and_silent(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.span("anything", attr=1)
        assert span is NULL_SPAN
        with span as s:
            s.set_attr("a", 1)
            s.set_attrs(b=2)
            s.add_event("e")
            s.set_duration(5.0)
        assert span.duration == 0.0
        assert NULL_TRACER.current_span is None
        assert NULL_TRACER.traces() == []

    def test_nesting_builds_a_tree(self):
        t = Tracer()
        with t.span("root") as root:
            assert t.current_span is root
            with t.span("child") as child:
                with t.span("grandchild"):
                    pass
            assert child.parent is root
        assert t.current_span is None
        assert [s.name for s in root.walk()] == [
            "root",
            "child",
            "grandchild",
        ]
        assert t.traces() == [root]
        assert root.duration >= 0.0

    def test_explicit_parent_crosses_threads(self):
        t = Tracer()
        with t.span("root") as root:
            def worker():
                # The worker thread has no active span of its own; the
                # explicit parent carries the trace context across.
                with t.span("worker-span", parent=root, **{"plan.index": 0}):
                    assert t.current_span.name == "worker-span"

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert [c.name for c in root.children] == ["worker-span"]

    def test_event_cap_counts_overflow(self, monkeypatch):
        monkeypatch.setattr(Span, "MAX_EVENTS", 3)
        t = Tracer()
        with t.span("s") as span:
            for i in range(5):
                span.add_event("e", i=i)
        assert len(span.events) == 3
        assert span.dropped_events == 2
        assert span.to_dict()["dropped_events"] == 2

    def test_exception_is_recorded_and_propagated(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError("nope")
        root = t.traces()[0]
        assert "ValueError" in root.attrs["error"]
        assert t.current_span is None

    def test_add_event_lands_on_current_span(self):
        t = Tracer()
        with t.span("a") as a:
            t.add_event("hit", x=1)
        assert a.events[0][1] == "hit"
        t.add_event("orphan")  # no active span: silently dropped

    def test_duration_override(self):
        t = Tracer(clock=lambda: 0.0)
        with t.span("s") as s:
            pass
        assert s.duration == 0.0
        s.set_duration(1.5)
        assert s.duration == 1.5

    def test_format_span_tree_elides_wide_fanouts(self):
        t = Tracer()
        with t.span("root") as root:
            for i in range(20):
                with t.span("leaf", **{"plan.index": i}):
                    pass
        text = format_span_tree(root, max_children=4)
        assert "16 more child span(s) elided" in text
        assert text.count("leaf") == 4

    def test_injectable_clock(self):
        ticks = iter([1.0, 3.5])
        t = Tracer(clock=lambda: next(ticks))
        with t.span("s") as s:
            pass
        assert s.duration == pytest.approx(2.5)


# ----------------------------------------------------------------------
# Metrics registry and exporters
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("trass.test.count")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = reg.gauge("trass.test.gauge")
        g.set(7)
        g.inc()
        g.dec(3)
        assert g.value == 5
        h = reg.histogram("trass.test.seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]
        assert h.cumulative_counts() == [1, 2, 3]
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)

    def test_get_or_create_is_idempotent_but_kind_strict(self):
        reg = MetricsRegistry()
        assert reg.counter("trass.x") is reg.counter("trass.x")
        with pytest.raises(ValueError):
            reg.gauge("trass.x")

    def test_name_validation(self):
        reg = MetricsRegistry()
        for bad in ("Trass.x", "trass..x", "1trass", "trass x", ""):
            with pytest.raises(ValueError):
                reg.counter(bad)

    def test_prometheus_export_parses(self):
        reg = MetricsRegistry()
        reg.counter("trass.test.count", "a counter").inc(3)
        reg.gauge("trass.test.gauge").set(1.5)
        h = reg.histogram("trass.test.seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = reg.to_prometheus()
        samples = parse_prometheus(text)
        assert samples["trass_test_count"] == 3
        assert samples["trass_test_gauge"] == 1.5
        assert samples['trass_test_seconds_bucket{le="0.1"}'] == 1
        assert samples['trass_test_seconds_bucket{le="1"}'] == 2
        assert samples['trass_test_seconds_bucket{le="+Inf"}'] == 2
        assert samples["trass_test_seconds_count"] == 2

    def test_parse_prometheus_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not { prometheus\n")

    def test_json_export_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("trass.a").inc(2)
        reg.histogram("trass.b", buckets=(1.0,)).observe(0.5)
        payload = json.loads(json.dumps(reg.to_json()))
        assert payload["trass.a"]["value"] == 2
        assert payload["trass.b"]["type"] == "histogram"

    def test_update_registry_from_engine(self, obs_engine):
        engine, data = obs_engine
        engine.threshold_search(data[0], 0.01)
        reg = MetricsRegistry()
        update_registry_from_engine(reg, engine)
        io = engine.metrics.snapshot()
        assert (
            reg.get("trass.io.rows_scanned").value == io["rows_scanned"]
        )
        assert reg.get("trass.store.trajectories").value == len(data)
        assert reg.get("trass.resilience.breaker.open_regions") is not None


# ----------------------------------------------------------------------
# Query tracing: span tree shape
# ----------------------------------------------------------------------
class TestQueryTracing:
    def test_threshold_span_tree_shape(self, obs_engine):
        engine, data = obs_engine
        with engine.traced() as tracer:
            result = engine.threshold_search(data[0], 0.02)
        root = tracer.traces()[-1]
        assert root.name == "query.threshold"
        assert [c.name for c in root.children] == ["prune", "scan", "refine"]
        prune = root.children[0]
        assert [c.name for c in prune.children] == [
            "prune.walk",
            "prune.ranges",
        ]
        scan = root.children[1]
        ranges = root.find("scan.range")
        assert len(ranges) == result.resilience.ranges_total
        assert scan.attrs["rows_retrieved"] == result.retrieved_rows
        assert root.attrs["answers"] == len(result.answers)
        assert root.attrs["candidates"] == result.candidates
        # tracing is disabled again outside the context manager
        assert engine.tracer is NULL_TRACER
        assert engine.store.executor.tracer is NULL_TRACER

    def test_threshold_batch_span_tree_shape(self, obs_engine):
        """A batch runs the single query's scan: one prune per query,
        then one shared scan and one refine."""
        engine, data = obs_engine
        queries = data[:3]
        with engine.traced() as tracer:
            results = engine.threshold_search_many(queries, 0.02)
        root = tracer.traces()[-1]
        assert root.name == "query.threshold_batch"
        assert [c.name for c in root.children] == [
            "prune", "prune", "prune", "scan", "refine"
        ]
        refine = root.children[-1]
        assert refine.attrs["refined"] == sum(r.candidates for r in results)
        assert refine.attrs["answers"] == sum(
            len(r.answers) for r in results
        )
        assert root.attrs["candidates"] == sum(r.candidates for r in results)

    def test_scan_range_spans_are_in_plan_order(self, obs_engine):
        engine, data = obs_engine
        with engine.traced() as tracer:
            engine.threshold_search(data[0], 0.02)
        ranges = tracer.traces()[-1].find("scan.range")
        indices = [s.attrs["plan.index"] for s in ranges]
        assert indices == sorted(indices)
        # the spans record which thread ran each range
        assert all("worker" in s.attrs for s in ranges)

    def test_filter_events_recorded_on_scan_spans(self, obs_engine):
        engine, data = obs_engine
        with engine.traced() as tracer:
            result = engine.threshold_search(data[0], 0.02)
        root = tracer.traces()[-1]
        names = [
            name
            for span in root.walk()
            for _, name, _ in span.events
        ]
        stats = result.filter_stats
        assert names.count("filter.pass") == stats.passed
        assert names.count("filter.reject") == stats.rejected

    def test_topk_span_tree_shape(self, obs_engine):
        engine, data = obs_engine
        before = engine.metrics.snapshot()
        with engine.traced() as tracer:
            result = engine.topk_search(data[0], 3)
        root = tracer.traces()[-1]
        assert root.name == "query.topk"
        search = root.children[0]
        assert search.name == "search"
        assert search.attrs["units_scanned"] == result.units_scanned
        # Most of the quad tree over a small store is empty, and the
        # occupancy probe keeps those subtrees off the element queue.
        assert search.attrs["empty_subtrees"] > 0
        units = root.find("topk.unit")
        assert len(units) == result.units_scanned
        # Per-unit row accounting reads one counter; it must still add
        # up to the table's own total.
        assert result.retrieved_rows > 0
        assert sum(u.attrs["rows"] for u in units) == result.retrieved_rows
        assert (
            engine.metrics.diff(before)["rows_scanned"] == result.retrieved_rows
        )
        assert search.attrs["rows_retrieved"] == result.retrieved_rows
        assert root.attrs["answers"] == len(result.answers)

    def test_refine_span_carries_early_abandon_stats(self, obs_engine):
        engine, data = obs_engine
        with engine.traced() as tracer:
            result = engine.threshold_search(data[0], 0.02)
        refine = tracer.traces()[-1].find("refine")[0]
        assert refine.attrs["refined"] == result.candidates
        assert refine.attrs["answers"] == len(result.answers)
        assert (
            refine.attrs["early_abandoned"]
            == result.candidates - len(result.answers)
        )


# ----------------------------------------------------------------------
# The non-perturbation contract
# ----------------------------------------------------------------------
class TestTracingParity:
    def test_traced_runs_are_byte_identical_to_untraced(self, obs_engine):
        engine, data = obs_engine
        query = data[1]

        before = engine.metrics.snapshot()
        plain = engine.threshold_search(query, 0.02)
        plain_delta = engine.metrics.diff(before)

        before = engine.metrics.snapshot()
        with engine.traced():
            traced = engine.threshold_search(query, 0.02)
        traced_delta = engine.metrics.diff(before)

        assert traced.answers == plain.answers
        assert traced.candidates == plain.candidates
        assert traced.retrieved_rows == plain.retrieved_rows
        assert traced_delta == plain_delta

    def test_topk_parity(self, obs_engine):
        engine, data = obs_engine
        query = data[2]
        before = engine.metrics.snapshot()
        plain = engine.topk_search(query, 5)
        plain_delta = engine.metrics.diff(before)
        before = engine.metrics.snapshot()
        with engine.traced():
            traced = engine.topk_search(query, 5)
        traced_delta = engine.metrics.diff(before)
        assert traced.answers == plain.answers
        assert traced_delta == plain_delta


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE
# ----------------------------------------------------------------------
class TestExplainAnalyze:
    def test_counts_match_iometrics_deltas(self, obs_engine):
        engine, data = obs_engine
        report = engine.explain_analyze(data[3], eps=0.02)
        # The phase tree's counts ARE the counter deltas.
        assert report.io_delta["rows_scanned"] == report.retrieved_rows
        scan = report.root.find("scan")[0]
        assert scan.attrs["rows_retrieved"] == report.io_delta["rows_scanned"]
        fs = report.filter_stats
        assert fs["evaluated"] == report.io_delta["filter_evaluations"]
        assert fs["rejected"] == report.io_delta["filter_rejections"]
        assert fs["passed"] == report.candidates
        assert fs["evaluated"] == fs["passed"] + fs["rejected"]
        assert report.answers == len(report.result.answers)

    def test_requires_exactly_one_of_eps_and_k(self, obs_engine):
        engine, data = obs_engine
        with pytest.raises(QueryError):
            engine.explain_analyze(data[0])
        with pytest.raises(QueryError):
            engine.explain_analyze(data[0], eps=0.01, k=3)

    def test_render_and_json(self, obs_engine):
        engine, data = obs_engine
        report = engine.explain_analyze(data[0], eps=0.02)
        text = report.render()
        assert "EXPLAIN ANALYZE threshold" in text
        assert "local filter funnel" in text
        assert "query.threshold" in text
        payload = json.loads(json.dumps(report.to_json(), default=str))
        assert payload["kind"] == "threshold"
        assert payload["trace"]["name"] == "query.threshold"

    def test_topk_report(self, obs_engine):
        engine, data = obs_engine
        report = engine.explain_analyze(data[0], k=4)
        assert report.kind == "topk"
        assert report.answers == 4
        assert "k=4" in report.render()

    def test_tracer_restored_after_report(self, obs_engine):
        engine, data = obs_engine
        engine.explain_analyze(data[0], eps=0.02)
        assert engine.tracer is NULL_TRACER


# ----------------------------------------------------------------------
# Deterministic virtual time under fault injection
# ----------------------------------------------------------------------
class TestVirtualClockUnderChaos:
    @staticmethod
    def _chaos_durations():
        engine, data = build_engine()
        injector = FaultInjector(
            FaultSchedule(
                seed=5,
                region_unavailable_prob=0.2,
                slow_region_prob=1.0,
                slow_region_seconds=0.05,
            )
        )
        engine.install_fault_injector(injector)
        try:
            with engine.traced() as tracer:
                engine.threshold_search(data[0], 0.02)
        finally:
            engine.install_fault_injector(None)
        root = tracer.traces()[-1]
        return [(s.name, s.duration) for s in root.walk()]

    def test_same_seed_same_span_durations(self):
        first = self._chaos_durations()
        second = self._chaos_durations()
        assert first == second
        # With slow_region_prob=1.0 every scanned range charges virtual
        # latency, so the trace shows real (virtual) time, not zeros.
        assert any(
            name == "scan.range" and duration > 0.0
            for name, duration in first
        )


# ----------------------------------------------------------------------
# Engine-level exporters
# ----------------------------------------------------------------------
class TestEngineMetricsExport:
    def test_export_json_and_prometheus(self, obs_engine):
        engine, data = obs_engine
        engine.threshold_search(data[0], 0.02)
        payload = engine.export_metrics("json")
        assert payload["trass.store.trajectories"]["value"] == len(data)
        samples = parse_prometheus(engine.export_metrics("prometheus"))
        assert "trass_io_rows_scanned" in samples
        assert "trass_query_seconds_count" in samples
        assert samples["trass_query_seconds_count"] >= 1

    def test_unknown_format_raises(self, obs_engine):
        engine, _ = obs_engine
        with pytest.raises(QueryError):
            engine.export_metrics("xml")


# ----------------------------------------------------------------------
# Histogram quantiles and merge semantics (the SLO building block)
# ----------------------------------------------------------------------
class TestHistogramQuantiles:
    BUCKETS = (0.001, 0.01, 0.1, 1.0)

    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram("t.q", buckets=self.BUCKETS)
        assert h.quantile(0.5) is None
        summary = h.summary()
        assert summary["count"] == 0
        assert summary["p99"] is None

    def test_quantile_interpolates_inside_bucket(self):
        h = Histogram("t.q", buckets=self.BUCKETS)
        for _ in range(100):
            h.observe(0.05)  # all mass in the (0.01, 0.1] bucket
        # Every quantile lands inside that bucket's bounds.
        for q in (0.5, 0.95, 0.99):
            assert 0.01 < h.quantile(q) <= 0.1

    def test_quantile_overflow_clamps_to_top_bound(self):
        h = Histogram("t.q", buckets=self.BUCKETS)
        for _ in range(10):
            h.observe(50.0)  # all in +Inf
        assert h.quantile(0.5) == 1.0  # lower-bound estimate, as in PromQL

    def test_default_buckets_resolve_sub_millisecond_latency(self):
        h = Histogram("t.q")
        for _ in range(20):
            h.observe(0.00012)
        # Without bounds below 0.5 ms the p50 read that bucket's midpoint.
        assert abs(h.quantile(0.5) - 0.00012) < 0.0001

    def test_quantile_validation(self):
        h = Histogram("t.q", buckets=self.BUCKETS)
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_merge_from_accumulates(self):
        a = Histogram("t.a", buckets=self.BUCKETS)
        b = Histogram("t.b", buckets=self.BUCKETS)
        for v in (0.005, 0.05, 0.5):
            a.observe(v)
        for v in (0.0005, 5.0):
            b.observe(v)
        a.merge_from(b)
        assert a.count == 5
        assert a.sum == pytest.approx(0.005 + 0.05 + 0.5 + 0.0005 + 5.0)
        assert sum(a.counts) == 5

    def test_merge_from_rejects_mismatched_buckets(self):
        a = Histogram("t.a", buckets=(0.1, 1.0))
        b = Histogram("t.b", buckets=(0.2, 2.0))
        with pytest.raises(ValueError):
            a.merge_from(b)

    def test_set_state_overwrites_not_accumulates(self):
        h = Histogram("t.q", buckets=(0.1, 1.0))
        h.set_state([1, 2, 3], 4.5, 6)
        h.set_state([1, 2, 3], 4.5, 6)  # a refresh must not double-count
        assert h.counts == [1, 2, 3]
        assert h.count == 6
        assert h.sum == 4.5
        with pytest.raises(ValueError):
            h.set_state([1, 2], 1.0, 3)  # wrong slot count


# ----------------------------------------------------------------------
# Prometheus exposition: pinned byte-for-byte against a golden file
# ----------------------------------------------------------------------
class TestPrometheusGolden:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter(
            "trass.io.rows_scanned", "rows scanned by range scans"
        ).inc(1234)
        reg.gauge("trass.store.trajectories", "trajectories stored").set(56)
        h = reg.histogram(
            "trass.query.seconds",
            "end-to-end query seconds",
            buckets=(0.001, 0.01, 0.1, 1.0),
        )
        for v in (0.0005, 0.004, 0.004, 0.05, 0.2, 5.0):
            h.observe(v)
        return reg

    def test_exposition_matches_golden_file(self):
        import os

        golden = os.path.join(
            os.path.dirname(__file__), "golden", "prometheus_small.txt"
        )
        with open(golden) as fh:
            expected = fh.read()
        assert self._registry().to_prometheus() == expected

    def test_histogram_buckets_are_cumulative_and_monotone(self):
        text = self._registry().to_prometheus()
        samples = parse_prometheus(text)
        # le buckets must be cumulative: each bound's count >= the
        # previous, +Inf equals the series count.
        counts = [
            samples[f'trass_query_seconds_bucket{{le="{le}"}}']
            for le in ("0.001", "0.01", "0.1", "1")
        ]
        assert counts == sorted(counts)
        assert samples['trass_query_seconds_bucket{le="+Inf"}'] == samples[
            "trass_query_seconds_count"
        ]
        assert counts[-1] <= samples["trass_query_seconds_count"]
