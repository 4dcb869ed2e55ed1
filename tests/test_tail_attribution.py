"""Threshold search runs Lemmas 13-14 after refinement where Lemma 12
applies, and counts as the filter inside the scan did.

``scan_and_refine`` runs only ``LocalFilter.head`` (Lemmas 5 and 12)
inside the scan for a measure with Lemma 12 (Fréchet, DTW), refines
every head survivor and runs ``LocalFilter.tail`` (Lemmas 13-14) only
on the rows refinement rejects; for Hausdorff it runs all four inside
the scan.  :func:`oracle_scan_and_refine` below is the order every
measure used before: every lemma (``LocalFilter.passes``) inside the
scan, then the exact measure row by row on the survivors.  On a store
where Lemmas 13-14 do reject rows, both must give the same answers,
candidates, filter tallies, ``ScanReport`` ranges and ``IOMetrics``,
for single queries, a batch whose plans overlap, a masked-fault run
(retried ranges, forced mid-scan splits) and a degraded run (skipped
ranges).
"""

import dataclasses
from bisect import bisect_right

import pytest

from repro import TraSS, TraSSConfig, Trajectory
from repro.core import threshold
from repro.core.local_filter import LocalFilter
from repro.core.threshold import ThresholdSearchResult, _shared_plan
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like
from repro.data.noise import jitter
from repro.kvstore.faults import FaultInjector, FaultSchedule
from repro.kvstore.filters import RowFilter
from repro.obs.tracing import NULL_TRACER

MEASURES = ["frechet", "hausdorff", "dtw"]
EPS = (0.0, 0.003, 0.01, 0.05)


# ----------------------------------------------------------------------
# The oracle: every lemma inside the scan.
# ----------------------------------------------------------------------
class PassesRowFilter(RowFilter):
    """Run ``LocalFilter.passes`` of every query subscribing to a row."""

    def __init__(self, decoder, filters, ends, subscribers, metrics):
        self.decoder = decoder
        self.filters = filters
        self.ends = ends
        self.subscribers = subscribers
        self.metrics = metrics
        self.accepted = {}

    def accept(self, key, value):
        subscribers = self.subscribers[bisect_right(self.ends, key)]
        record = self.decoder(key, value)
        passed = [q for q in subscribers if self.filters[q].passes(record)]
        extra = len(subscribers) - 1
        if extra:
            shared = max(len(passed) - 1, 0)
            self.metrics.batch_rows_shared += extra
            self.metrics.filter_evaluations += extra
            self.metrics.filter_rejections += extra - shared
            self.metrics.rows_returned += shared
        if passed:
            self.accepted[key] = (record, passed)
            return True
        return False


def oracle_scan_and_refine(
    store, measure, queries, eps_list, ranges_list, tracer=NULL_TRACER,
    shards=None,
):
    pairs = [store.scan_ranges_for(r, shards=shards) for r in ranges_list]
    plan, holders, ends, subscribers = _shared_plan(pairs)
    metrics = store.metrics
    metrics.batch_ranges_merged += sum(map(len, pairs)) - len(plan)
    filters = [
        LocalFilter(q, measure, e, store.config.dp_tolerance)
        for q, e in zip(queries, eps_list)
    ]
    row_filter = PassesRowFilter(
        store.record_decoder, filters, ends, subscribers, metrics
    )
    delivered, report = store.executor.scan_ranges(plan, row_filter)
    survivors = [[] for _ in queries]
    for key, _ in delivered:
        record, qids = row_filter.accepted.pop(key)
        for qid in qids:
            survivors[qid].append(record)
    gone = {r.start for r in report.skipped_ranges}
    results = []
    for qid, own in enumerate(pairs):
        answers = {}
        for record in survivors[qid]:
            dist = measure.distance_within(queries[qid], record, eps_list[qid])
            if dist is not None:
                answers[record.tid] = dist
        lost = [r for r, g in zip(own, holders[qid]) if plan[g].start in gone]
        results.append(
            ThresholdSearchResult(
                answers=answers,
                candidates=len(survivors[qid]),
                retrieved_rows=filters[qid].stats.evaluated,
                pruning=None,
                pruning_seconds=0.0,
                scan_seconds=0.0,
                refine_seconds=0.0,
                resilience=dataclasses.replace(
                    report,
                    ranges_total=len(own),
                    ranges_completed=len(own) - len(lost),
                    skipped_ranges=lost,
                ),
                filter_stats=filters[qid].stats,
            )
        )
    return results


# ----------------------------------------------------------------------
# The store: jittered copies of a few routes beside background trips,
# split into many small regions.
# ----------------------------------------------------------------------
def detour(route, offset, tid):
    """``route`` with its middle third moved ``offset`` north: the same
    endpoints (Lemma 12 passes), a different middle (Lemma 13 rejects)."""
    n = len(route.points)
    return Trajectory(tid, [
        (x, y + offset) if n // 3 <= i < n - n // 3 else (x, y)
        for i, (x, y) in enumerate(route.points)
    ])


def fleet():
    routes = tdrive_like(8, seed=23)
    data = list(tdrive_like(40, seed=29))
    for r, route in enumerate(routes):
        for c in range(5):
            data.append(jitter(route, 0.002, seed=100 * r + c, tid=f"r{r}c{c}"))
        for c in range(3):
            data.append(detour(route, 0.01 * (c + 1), tid=f"r{r}d{c}"))
    queries = [
        jitter(r, 0.0005, seed=7 + i, tid=f"q{i}") for i, r in enumerate(routes)
    ]
    return data, queries


def config(**overrides) -> TraSSConfig:
    settings = dict(
        bounds=TDRIVE_BOUNDS,
        max_resolution=12,
        shards=2,
        max_region_rows=12,
        retry_max_attempts=8,
    )
    return TraSSConfig(**{**settings, **overrides})


def summary(result):
    report = result.resilience
    return (
        list(result.answers.items()),
        result.candidates,
        result.retrieved_rows,
        result.filter_stats.as_dict(),
        report.ranges_total,
        report.ranges_completed,
        report.skipped_ranges,
        report.retries,
        report.faults_encountered,
    )


def single_queries(engine, queries):
    return [
        summary(engine.threshold_search(q, eps, measure=m))
        for m in MEASURES
        for q in queries
        for eps in EPS
    ]


def batches(engine, queries):
    # Overlapping plans: every query twice, at two thresholds.
    out = []
    for m in MEASURES:
        for eps in (0.003, 0.02):
            results = engine.threshold_search_many(
                queries + queries[::-1], eps, measure=m
            )
            out.extend(summary(r) for r in results)
    return out


def run_both(monkeypatch, workload, schedule=None, **overrides):
    data, queries = fleet()
    live = TraSS.build(data, config(**overrides))
    reference = TraSS.build(data, config(**overrides))
    assert live.store.table.num_regions > 1
    if schedule is not None:
        for engine in (live, reference):
            engine.install_fault_injector(FaultInjector(schedule))
    got = workload(live, queries)
    with monkeypatch.context() as patch:
        patch.setattr(threshold, "scan_and_refine", oracle_scan_and_refine)
        want = workload(reference, queries)
    assert got == want
    assert live.metrics.snapshot() == reference.metrics.snapshot()
    # The store reaches Lemmas 13-14 and they reject rows.
    tallies = [s[3] for s in got]
    assert sum(t["rejected_rep_points"] + t["rejected_boxes"] for t in tallies)
    assert sum(t["passed"] for t in tallies)
    return live, got


@pytest.mark.parametrize("workload", [single_queries, batches])
def test_matches_lemmas_inside_the_scan(monkeypatch, workload):
    live, _ = run_both(monkeypatch, workload)
    if workload is batches:
        assert live.metrics.batch_rows_shared > 0


def test_masked_faults_match_lemmas_inside_the_scan(monkeypatch):
    schedule = FaultSchedule(
        seed=9,
        region_unavailable_prob=0.3,
        max_consecutive_failures=1,
        split_prob=0.2,
        compact_prob=0.1,
    )
    live, results = run_both(monkeypatch, batches, schedule)
    assert live.metrics.retries > 0
    assert live.fault_injector.forced_splits > 0
    assert not any(r[6] for r in results)  # masked: nothing skipped


def test_skipped_ranges_match_lemmas_inside_the_scan(monkeypatch):
    schedule = FaultSchedule(
        seed=4, region_unavailable_prob=0.5, max_consecutive_failures=6
    )
    live, results = run_both(
        monkeypatch, batches, schedule, degraded_mode=True,
        retry_max_attempts=2,
    )
    assert live.metrics.ranges_skipped > 0
    assert any(r[6] for r in results)


@pytest.mark.parametrize("measure", MEASURES)
def test_refinement_order_follows_lemma_12(measure):
    """With Lemma 12 (Fréchet, DTW) every head survivor is refined; without
    it (Hausdorff) only the rows Lemmas 13-14 pass inside the scan."""
    data, queries = fleet()
    engine = TraSS.build(data, config())
    with engine.traced() as tracer:
        results = engine.threshold_search_many(queries, 0.02, measure=measure)
    refine = tracer.traces()[-1].find("refine")[0]
    tail_rejected = sum(
        r.filter_stats.rejected_rep_points + r.filter_stats.rejected_boxes
        for r in results
    )
    candidates = sum(r.candidates for r in results)
    assert tail_rejected > 0
    assert refine.attrs["refined"] == candidates
    if measure == "hausdorff":
        assert refine.attrs["kernel_rows"] == candidates
    else:
        assert refine.attrs["kernel_rows"] == candidates + tail_rejected
