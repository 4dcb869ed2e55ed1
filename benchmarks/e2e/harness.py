"""Set-up, load loops, answer checking and metric assembly.

One function per harness kind (``read``, ``cluster``, ``ingest``); each
takes a :class:`Run` and returns ``(metrics, details, checker)`` where
``metrics`` holds the end-to-end metrics (untraced run) or the
per-layer metrics (traced run) by their ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro import TraSS
from repro.baselines import BruteForceBaseline
from repro.obs.workload_log import answers_digest
from repro.serve import ServingCluster

import workloads as wl
from spans import SpanRecorder, by_layer, instrument_engine, instrument_process

#: bytes of one raw stored point (two float64), the ``space_amp`` base
POINT_BYTES = 16
DISTANCE_TOLERANCE = 1e-9


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def ms(seconds: float) -> float:
    return seconds * 1000.0


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def peak_rss_mb(children: bool = False) -> float:
    """``ru_maxrss`` of this process in MiB, plus the largest reaped
    child's when ``children`` (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
class Checker:
    """Every op against the brute-force oracle and against the first
    answer the same query got.

    The first ``oracle_queries`` distinct queries are answered by
    ``repro.baselines.BruteForceBaseline``.  Threshold answers must
    match in tid set and, to 1e-9, in distance.  Top-k answers are
    compared as a distance multiset (a tie at the k-th place may name
    either trajectory): brute force returns everything within the
    engine's k-th distance, and the k smallest of those distances must
    be the engine's — which catches a missed closer trajectory and a
    wrong distance alike, at a quarter of the cost of ranking all rows.
    Every repeat of a query must reproduce the first answer's digest
    and scan the same number of rows.
    """

    def __init__(self, kind: str, data, queries, oracle_queries: int):
        self.kind = kind
        self.queries = queries
        self.oracle_queries = min(oracle_queries, len(queries))
        self.brute = BruteForceBaseline()
        self.brute.build(data)
        self.stored = len(data)
        self.oracle: Dict[int, object] = {}
        #: query index -> (answers digest, rows scanned) of its first answer
        self.first: Dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.oracle_s = 0.0

    def _expected(self, i: int, result):
        expected = self.oracle.get(i)
        if expected is None and i < self.oracle_queries:
            started = perf_counter()
            if self.kind == "threshold":
                expected = self.brute.threshold_search(
                    self.queries[i], wl.EPS
                ).answers
            else:
                want = min(wl.K, self.stored)
                radius = (
                    result.answers[-1][0] if result.answers else math.inf
                )
                within = self.brute.threshold_search(self.queries[i], radius)
                expected = sorted(within.answers.values())[:want]
            self.oracle[i] = expected
            self.oracle_s += perf_counter() - started
        return expected

    def _matches_oracle(self, expected, result) -> bool:
        if self.kind == "threshold":
            return result.answers.keys() == expected.keys() and all(
                abs(result.answers[tid] - dist) <= DISTANCE_TOLERANCE
                for tid, dist in expected.items()
            )
        got = [dist for dist, _ in result.answers]
        want = min(wl.K, self.stored)
        return len(got) == want == len(expected) and all(
            abs(a - b) <= DISTANCE_TOLERANCE for a, b in zip(got, expected)
        )

    def _fail(self, message: str) -> bool:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)
        return False

    def check(self, i: int, result) -> bool:
        """Account one answered op; ``False`` when it was wrong."""
        self.attempted += 1
        seen = (answers_digest(self.kind, result), result.retrieved_rows)
        first = self.first.setdefault(i, seen)
        if seen != first:
            return self._fail(
                f"query {i}: answer or rows scanned differ from its "
                f"first answer ({seen} vs {first})"
            )
        expected = self._expected(i, result)
        if expected is not None and not self._matches_oracle(expected, result):
            return self._fail(f"query {i}: answer differs from brute force")
        return True

    def error(self, i: int, exc: Exception) -> None:
        """Account an op that raised."""
        self.attempted += 1
        self._fail(f"query {i}: {type(exc).__name__}: {exc}")

    def mismatch(self, message: str) -> None:
        """Account a failed cross-check that is not a single op."""
        self.attempted += 1
        self._fail(message)

    def rows_per_op(self) -> float:
        """Mean rows scanned over the distinct query set.  Repeats are
        checked to scan exactly their first answer's rows, so this is
        the per-op mean of any whole number of passes — and repeats
        exactly from run to run."""
        return statistics.fmean(rows for _, rows in self.first.values())


# ----------------------------------------------------------------------
# Timing on a machine whose speed drifts
# ----------------------------------------------------------------------
#: seconds the calibration loop takes on the quiet sandbox this
#: benchmark was written on; every reported time is scaled to it
REFERENCE_S = 0.00022
#: a calibration sample older than this is taken again before use
STALE_S = 0.002
#: after a call, one more sample per this many seconds the call took,
#: so a long op is not scaled by a single 0.2 ms glimpse of the machine
SAMPLE_EVERY_S = 0.01
MAX_SAMPLES = 8


def calibrate() -> float:
    """Seconds one fixed, program-independent loop takes right now."""
    started = perf_counter()
    total = 0
    for i in range(5000):
        total += i * i
    return perf_counter() - started


class Clock:
    """Times calls in *reference seconds*.

    The sandbox shares its host: the same op takes 2.4 ms in one second
    and 5 ms a few seconds later, and whole runs land in slow spells,
    so raw medians of identical work differ by 20-40 % between runs —
    more than any bound that could still catch a regression.  The clock
    therefore runs a fixed interpreter loop right before and right
    after every timed call and scales the call's wall time by
    ``REFERENCE_S`` over the mean of the two samples.  The loop shares
    nothing with the program, so no change to the program can move it;
    it tracks the drift well enough to cut run-to-run spread three- to
    five-fold.  Raw medians are kept in the run's details.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last_at = -1.0

    def _sample(self, count: int = 1) -> float:
        sample = statistics.median(calibrate() for _ in range(count))
        self.samples.append(sample)
        self._last_at = perf_counter()
        return sample

    def before(self, fresh: bool = False) -> float:
        """The calibration to pair with a call about to start."""
        if fresh or perf_counter() - self._last_at > STALE_S:
            return self._sample()
        return self.samples[-1]

    def scale(self, raw: float, before: float) -> float:
        """``raw`` seconds of a call that just ended, in reference
        seconds (takes the after-sample)."""
        after = self._sample(1 + min(MAX_SAMPLES - 1, int(raw / SAMPLE_EVERY_S)))
        return raw * 2.0 * REFERENCE_S / (before + after)

    def timed(self, fn: Callable):
        """``(fn(), reference seconds, raw seconds)``."""
        before = self.before()
        started = perf_counter()
        out = fn()
        raw = perf_counter() - started
        return out, self.scale(raw, before), raw

    def factor_since(self, mark: int) -> float:
        """Scale factor of a whole phase: reference over the median of
        the samples taken since ``mark = len(clock.samples)``."""
        return REFERENCE_S / statistics.median(self.samples[mark:])


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def query_call(kind: str) -> Callable:
    if kind == "threshold":
        return lambda target, query: target.threshold_search(query, wl.EPS)
    return lambda target, query: target.topk_search(query, wl.K)


class Samples:
    """The timed ops of one phase."""

    def __init__(self) -> None:
        #: reference seconds, raw seconds and query index of every op
        self.scaled: List[float] = []
        self.raw: List[float] = []
        self.query: List[int] = []

    def add(self, scaled: float, raw: float, query: int) -> None:
        self.scaled.append(scaled)
        self.raw.append(raw)
        self.query.append(query)

    def __len__(self) -> int:
        return len(self.scaled)

    def per_query_median(self) -> Dict[int, float]:
        grouped: Dict[int, List[float]] = {}
        for query, seconds in zip(self.query, self.scaled):
            grouped.setdefault(query, []).append(seconds)
        return {q: statistics.median(v) for q, v in grouped.items()}

    def metrics(self) -> Dict[str, float]:
        return {
            "latency_p50_ms": ms(statistics.median(self.scaled)),
            "latency_p95_ms": ms(percentile(self.scaled, 0.95)),
            "throughput_ops_s": len(self.scaled) / sum(self.scaled),
        }

    def details(self) -> Dict[str, float]:
        return {
            "samples": len(self.scaled),
            "raw_latency_p50_ms": ms(statistics.median(self.raw)),
            "raw_latency_p95_ms": ms(percentile(self.raw, 0.95)),
        }


def slowdown(traced: Samples, untraced: Samples) -> float:
    """Median over the queries both phases sent of (traced median /
    untraced median), minus one.  Comparing query by query keeps a
    different mix of cheap and dear queries in the two phases from
    passing for overhead."""
    before, after = untraced.per_query_median(), traced.per_query_median()
    return statistics.median(after[q] / before[q] for q in after if q in before) - 1.0


class Loop:
    """A closed loop, one client: whole passes over ``queries`` in
    ``order`` against ``target``, ending at the pass boundary nearest to
    ``seconds``.  Whole passes give every query the same number of
    repeats, so a run's op mix does not depend on where the clock ran
    out.  Each call is timed and each answer checked; checking and
    calibration are client think time, outside every latency."""

    def __init__(self, call, queries, order, checker: Checker, clock: Clock):
        self.call = call
        self.queries = queries
        self.order = order
        self.checker = checker
        self.clock = clock

    def one(self, target, i: int, samples: Samples, keep=None) -> None:
        clock = self.clock
        before = clock.before()
        started = perf_counter()
        try:
            result = self.call(target, self.queries[i])
        except Exception as exc:  # a failed op, not a failed run
            raw = perf_counter() - started
            self.checker.error(i, exc)
        else:
            raw = perf_counter() - started
            self.checker.check(i, result)
            if keep is not None:
                keep.append(result)
        samples.add(clock.scale(raw, before), raw, i)

    def run(self, target, seconds: float, keep: Optional[list] = None) -> Samples:
        samples = Samples()
        started = perf_counter()
        while True:
            pass_started = perf_counter()
            for i in self.order:
                self.one(target, i, samples, keep)
            now = perf_counter()
            if now + (now - pass_started) / 2.0 >= started + seconds:
                return samples


class Setup:
    """The set-up, in reference seconds.  ``setup_s`` is the median over
    repetitions of the summed store set-up calls (build, save, cluster
    start) plus the one warm-up pass."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.warm_up_s = 0.0
        #: one {part: seconds} per repetition
        self.repetitions: List[Dict[str, float]] = []
        self.cold: List[float] = []
        self.bytes_on_disk = 0

    def timed(self, part: str, fn: Callable):
        out, seconds, _ = self.clock.timed(fn)
        current = self.repetitions[-1]
        current[part] = current.get(part, 0.0) + seconds
        return out

    def begin_repetition(self) -> Dict[str, float]:
        self.repetitions.append({})
        return self.repetitions[-1]

    @property
    def totals(self) -> List[float]:
        return [sum(parts.values()) for parts in self.repetitions]

    def median(self, part: str) -> float:
        return statistics.median(
            parts[part] for parts in self.repetitions if part in parts
        )

    def metrics(self, world: wl.World) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(self.totals) + self.warm_up_s,
            "ingest_traj_per_s": len(world.data) / self.median("ingest"),
            "cold_first_answer_ms": ms(statistics.median(self.cold)),
            "space_amp": self.bytes_on_disk / (POINT_BYTES * world.points),
        }

    def details(self) -> Dict[str, object]:
        parts = {p for rep in self.repetitions for p in rep}
        return {
            "setup_repetitions_s": self.totals,
            "setup_parts_median_s": {p: self.median(p) for p in sorted(parts)},
            "warm_up_s": self.warm_up_s,
            "calibration_median_ms": ms(statistics.median(self.clock.samples)),
            "calibration_reference_ms": ms(REFERENCE_S),
        }


def build_save_probe(setup: Setup, world, queries, call, checker, directory):
    """One set-up repetition's store work: build, save compact, then the
    cold-open probes (``TraSS.load`` + first query, not set-up time).

    The build is ``TraSS.build`` spelt out — an engine and ``add_all``
    — in batches, so each stretch of it is scaled by calibration samples
    taken right beside it."""
    data = world.data
    engine = TraSS(wl.engine_config())
    batch = -(-len(data) // wl.BUILD_BATCHES)
    for lo in range(0, len(data), batch):
        setup.timed("ingest", lambda: engine.add_all(data[lo : lo + batch]))
    shutil.rmtree(directory, ignore_errors=True)
    setup.timed("save", lambda: engine.save(directory, compact=True))
    setup.bytes_on_disk = directory_bytes(directory)
    for _ in range(wl.COLD_PROBES):
        result, seconds, _ = setup.clock.timed(
            lambda: call(TraSS.load(directory), queries[0])
        )
        setup.cold.append(seconds)
        checker.check(0, result)
    return engine


def warm_up(setup: Setup, loop: Loop, target) -> None:
    """One pass over the distinct queries, charged to set-up.  It fills
    the plan cache and records every query's first answer.  The pass
    follows ``order`` like the loop after it, so a query's repeats are
    always a whole pass apart.  It runs once, on the store the run then
    measures: it is the dearest part of set-up and, being a sum of
    hundreds of separately scaled calls, the steadiest."""
    warm = Samples()
    for i in loop.order:
        loop.one(target, i, warm)
    setup.warm_up_s = sum(warm.scaled)


def reconcile(summary, walls: Sequence[float]) -> float:
    """``trace.residue_ratio``: the share of the op wall clock that the
    layers' self times do not account for."""
    wall = sum(walls)
    return abs(wall - summary["total_self_s"]) / wall


def layer_shares(self_s: Dict[str, float]) -> Dict[str, float]:
    layers = by_layer(self_s)
    total = sum(layers.values())
    return {
        layer: seconds / total
        for layer, seconds in sorted(layers.items())
        if seconds > 0.0
    }


def query_layer_metrics(summary, ops: int, factor: float) -> Dict[str, float]:
    """Per-op self times of the read-path layers, in reference ms
    (``factor`` is the traced phase's :meth:`Clock.factor_since`)."""
    self_s = summary["self_s"]
    calls = summary["calls"]

    def per_op_ms(*names: str) -> float:
        return ms(sum(self_s.get(n, 0.0) for n in names)) * factor / ops

    return {
        "pruning.self_ms": per_op_ms("pruning.prune"),
        "storage.keymap_self_ms": per_op_ms("storage.scan_ranges_for"),
        "executor.self_ms": per_op_ms(
            "executor.execute", "executor.scan_ranges", "executor.scan_chunk"
        ),
        "kvstore.self_ms": per_op_ms("kvstore.scan"),
        "codec.decode_self_ms": per_op_ms("codec.decode"),
        "codec.decodes": calls.get("codec.decode", 0) / ops,
        "local_filter.self_ms": per_op_ms("local_filter.passes"),
        "measures.refine_self_ms": per_op_ms("measures.distance_within"),
        "measures.refined": calls.get("measures.distance_within", 0) / ops,
        "topk.self_ms": per_op_ms("topk.search", "topk.callback"),
        "engine.self_ms": per_op_ms(
            "engine.threshold_search", "engine.topk_search", "engine.callback"
        ),
    }


def result_layer_metrics(results, io: Dict[str, int], shards: int):
    """Per-op counts read off the results and the ``IOMetrics`` delta of
    the traced phase."""
    ops = len(results)
    stats = [r.filter_stats for r in results if r.filter_stats is not None]
    evaluated = sum(s.evaluated for s in stats)
    ranges = sum(len(r.pruning.ranges) for r in results if hasattr(r, "pruning"))
    units = sum(getattr(r, "units_scanned", 0) for r in results)
    plans = io["plan_cache_hits"] + io["plan_cache_misses"]
    candidates = sum(r.candidates for r in results)
    return {
        "pruning.ranges_planned": ranges / ops,
        "pruning.plan_cache_hit_ratio": (
            io["plan_cache_hits"] / plans if plans else 0.0
        ),
        # index ranges x salts: a threshold plan's ranges, a top-k unit each
        "storage.scan_ranges": (ranges + units) * shards / ops,
        "executor.range_seeks": io["range_seeks"] / ops,
        "executor.retries": io["retries"] / ops,
        "kvstore.rows_per_seek": (
            io["rows_scanned"] / io["range_seeks"] if io["range_seeks"] else 0.0
        ),
        "kvstore.bytes_read": io["bytes_read"] / ops,
        "kvstore.sstables_opened": io["sstables_opened"] / ops,
        "local_filter.evaluations": evaluated / ops,
        "local_filter.pass_ratio": (
            sum(s.passed for s in stats) / evaluated if evaluated else 0.0
        ),
        "local_filter.rejected_mbr": sum(s.rejected_mbr for s in stats) / ops,
        "local_filter.rejected_start_end": (
            sum(s.rejected_start_end for s in stats) / ops
        ),
        "local_filter.rejected_rep_points": (
            sum(s.rejected_rep_points for s in stats) / ops
        ),
        "local_filter.rejected_boxes": (
            sum(s.rejected_boxes for s in stats) / ops
        ),
        "measures.precision": (
            sum(len(r.answers) for r in results) / candidates
            if candidates
            else 1.0
        ),
        "topk.units_materialised": units / ops,
    }


def interleaved(targets, loop: Loop, seconds: float) -> List[Samples]:
    """Samples of each target, ops interleaved query by query and
    alternating which target goes first, so drift on a busy host hits
    every side equally (the ``bench_cluster_obs.py`` protocol)."""
    sides = [(target, Samples()) for target in targets]
    deadline = perf_counter() + seconds
    turn = 0
    while perf_counter() < deadline:
        i = loop.order[turn % len(loop.order)]
        for target, samples in sides if turn % 2 == 0 else sides[::-1]:
            loop.one(target, i, samples)
        turn += 1
    return [samples for _, samples in sides]


def telemetry_overhead(world, loop: Loop, seconds: float):
    """``obs.telemetry_overhead_ratio``: p50 of the default engine over
    p50 of one built with ``storage_telemetry=False``, minus one.
    Returns the ratio and the default engine's samples."""
    engines = [
        TraSS.build(world.data, wl.engine_config(storage_telemetry=flag))
        for flag in (True, False)
    ]
    for engine in engines:  # fill both plan caches
        for query in loop.queries:
            loop.call(engine, query)
    on, off = interleaved(engines, loop, seconds)
    return statistics.median(on.raw) / statistics.median(off.raw) - 1.0, on


def batch_metrics(world, queries, checker: Checker, clock: Clock):
    """One ``threshold_search_many`` over the whole distinct query set,
    on an engine of its own so the measured one's plan cache stays as
    the loop left it."""
    engine = TraSS.build(world.data, wl.engine_config())
    results, seconds, _ = clock.timed(
        lambda: engine.threshold_search_many(queries, wl.EPS)
    )
    for i, result in enumerate(results):
        # A shared scan changes rows scanned per query by design; only
        # the answers must match the sequential ones.
        if answers_digest("threshold", result) != checker.first[i][0]:
            checker.mismatch(f"query {i}: batch answer differs")
    return {
        "batch.per_query_ms": ms(seconds) / len(queries),
        "batch.rows_shared": float(engine.metrics.batch_rows_shared),
    }


# ----------------------------------------------------------------------
# read: thr_fresh, thr_repeat, thr_dense, topk
# ----------------------------------------------------------------------
@dataclass
class Run:
    """The generated inputs and settings of one benchmark run."""

    workload: wl.Workload
    world: wl.World
    queries: list
    order: List[int]
    seconds: float
    trace: bool
    smoke: bool
    #: scratch directory inside the checkout, removed after the run
    tmp: str
    spans_out: Optional[str] = None

    @property
    def store_dir(self) -> str:
        return os.path.join(self.tmp, "store")

    def checker(self) -> Checker:
        return Checker(
            self.workload.kind,
            self.world.data,
            self.queries,
            self.world.oracle_queries,
        )


def run_read(run: Run):
    workload, world, queries = run.workload, run.world, run.queries
    call = query_call(workload.kind)
    checker = run.checker()
    clock = Clock()
    setup = Setup(clock)
    for _ in range(wl.SETUP_REPEATS):
        setup.begin_repetition()
        engine = build_save_probe(
            setup, world, queries, call, checker, run.store_dir
        )
    loop = Loop(call, queries, run.order, checker, clock)
    warm_up(setup, loop, engine)

    if not run.trace:
        samples = loop.run(engine, run.seconds)
        metrics = {
            **setup.metrics(world),
            **samples.metrics(),
            "rows_scanned_per_op": checker.rows_per_op(),
            "peak_rss_mb": peak_rss_mb(),
        }
        return metrics, {**setup.details(), **samples.details()}, checker

    metrics: Dict[str, float] = {}
    untraced = loop.run(engine, run.seconds * wl.UNTRACED_SHARE)
    remaining = run.seconds * (1.0 - wl.UNTRACED_SHARE)
    quiet = list(untraced.scaled)
    if workload.name == "thr_repeat":
        share = run.seconds * wl.TELEMETRY_AB_SHARE
        ratio, default = telemetry_overhead(world, loop, share)
        metrics["obs.telemetry_overhead_ratio"] = ratio
        quiet += default.scaled
        remaining -= share
    if workload.name == "thr_fresh":
        metrics.update(batch_metrics(world, queries, checker, clock))
    if len(quiet) >= 1000:  # ten samples beyond the percentile
        metrics["engine.latency_p99_ms"] = ms(percentile(quiet, 0.99))

    rec = SpanRecorder()
    instrument_process(rec)
    instrument_engine(rec, engine)
    results: list = []
    mark = len(clock.samples)
    io_before = engine.metrics.snapshot()
    traced = loop.run(engine, remaining, keep=results)
    io = engine.metrics.diff(io_before)
    summary = rec.summary()
    if len(results) != len(traced):  # a raised op left no result to read
        checker.mismatch("traced phase lost results to exceptions")
    if io["rows_scanned"] != sum(r.retrieved_rows for r in results):
        checker.mismatch("IOMetrics.rows_scanned disagrees with the results")
    factor = clock.factor_since(mark)
    metrics.update(query_layer_metrics(summary, len(traced), factor))
    metrics.update(result_layer_metrics(results, io, engine.config.shards))
    metrics["kvstore.empty_seek_ratio"] = rec.empty_seeks / max(1, rec.seeks)
    metrics["trace.residue_ratio"] = reconcile(summary, traced.raw)
    metrics["trace.overhead_ratio"] = slowdown(traced, untraced)
    details = {
        **setup.details(),
        **traced.details(),
        "untraced_samples": len(untraced),
        "spans": summary["spans"],
        "layer_shares": layer_shares(summary["self_s"]),
        "rows_scanned_per_op": checker.rows_per_op(),
    }
    if run.spans_out:
        rec.dump(run.spans_out)
    return metrics, details, checker


# ----------------------------------------------------------------------
# cluster: cluster_open
# ----------------------------------------------------------------------
def open_loop(cluster, loop: Loop, rate: float, seconds: float):
    """Fixed-rate arrivals from one generator with one call in flight
    (the coordinator is synchronous and not thread-safe).  Latency runs
    from the *intended* send time, so a stall is charged to every op
    queued behind it; how late the generator sent is reported too."""
    clock, checker = loop.clock, loop.checker
    samples = Samples()
    lags: List[float] = []
    backlog_max = 0
    misses = 0
    count = max(1, int(rate * seconds))
    origin = perf_counter()
    for n in range(count):
        i = loop.order[n % len(loop.order)]
        due = origin + n / rate
        # Waiting by calibrating keeps the core awake (a sleeping core
        # answers the next op slowly) and the sample fresh.
        before = clock.before()
        while perf_counter() < due:
            before = clock.before(fresh=True)
        now = perf_counter()
        lags.append(now - due)
        backlog_max = max(backlog_max, int((now - due) * rate))
        failures = checker.failed
        try:
            result = cluster.threshold_search(loop.queries[i], wl.EPS)
        except Exception as exc:
            raw = perf_counter() - due
            checker.error(i, exc)
        else:
            raw = perf_counter() - due
            checker.check(i, result)
        samples.add(clock.scale(raw, before), raw, i)
        if ms(raw) > wl.SLO_MS or checker.failed > failures:
            misses += 1
    return {
        "samples": samples,
        "lag_p95_ms": ms(percentile(lags, 0.95)),
        "backlog_max": backlog_max,
        "slo_miss_ratio": misses / count,
    }


def saturation_burst(cluster, run: Run, checker: Checker, clock: Clock):
    """Closed saturation: the query set through ``threshold_search_many``
    in ``BURSTS`` batches; queries per reference second over all of them."""
    queries, order = run.queries, run.order
    passes = max(
        1, wl.scaled(wl.BURST_QUERIES, run.smoke) // (wl.BURSTS * len(order))
    )
    batch = [queries[i] for i in order] * passes
    seconds = 0.0
    for _ in range(wl.BURSTS):
        results, elapsed, _ = clock.timed(
            lambda: cluster.threshold_search_many(batch, wl.EPS)
        )
        seconds += elapsed
        for i, result in zip(order * passes, results):
            checker.check(i, result)
    return wl.BURSTS * len(batch), seconds


def run_cluster(run: Run):
    workload, world, queries, order = (
        run.workload, run.world, run.queries, run.order
    )
    call = query_call(workload.kind)
    checker = run.checker()
    clock = Clock()
    setup = Setup(clock)
    cluster = None
    try:
        for _ in range(wl.SETUP_REPEATS):
            setup.begin_repetition()
            if cluster is not None:
                cluster.stop()
            engine = build_save_probe(
                setup, world, queries, call, checker, run.store_dir
            )
            cluster = setup.timed(
                "start",
                lambda: ServingCluster.from_trajectories(
                    world.data,
                    wl.engine_config(),
                    partitions=wl.CLUSTER_PARTITIONS,
                    replication=wl.CLUSTER_REPLICATION,
                    observability=run.trace,
                ).start(),
            )
        loop = Loop(call, queries, order, checker, clock)
        warm_up(setup, loop, cluster)

        if not run.trace:
            lo = open_loop(
                cluster, loop, wl.RATE_LO, run.seconds * wl.RATE_LO_SHARE
            )
            hi = open_loop(
                cluster, loop, wl.RATE_HI, run.seconds * wl.RATE_HI_SHARE
            )
            burst_queries, burst_s = saturation_burst(
                cluster, run, checker, clock
            )
            metrics = {
                **setup.metrics(world),
                **hi["samples"].metrics(),
                "throughput_ops_s": burst_queries / burst_s,
                "rows_scanned_per_op": checker.rows_per_op(),
            }
            details = {
                **setup.details(),
                **hi["samples"].details(),
                "rate_lo_samples": len(lo["samples"]),
                "burst_queries": burst_queries,
                "slo_miss_ratio": hi["slo_miss_ratio"],
                "generator_lag_p95_ms": hi["lag_p95_ms"],
                "backlog_max": hi["backlog_max"],
                "latency_p95_ms_rate_lo": ms(
                    percentile(lo["samples"].scaled, 0.95)
                ),
            }
        else:
            share = wl.COORDINATOR_AB_SHARE
            through, direct = interleaved(
                (cluster, engine), loop, run.seconds * share
            )
            rest = run.seconds * (1.0 - share)
            lo = open_loop(cluster, loop, wl.RATE_LO, rest * 0.25)
            hi = open_loop(cluster, loop, wl.RATE_HI, rest * 0.75)
            stats = cluster.stats()
            slo = stats["observability"]["slo"]["summaries"]
            io = stats["observability"]["cluster_io"]
            ops = slo["query"]["count"]
            plans = cluster.pruner.metrics
            planned = plans.plan_cache_hits + plans.plan_cache_misses
            metrics = {
                "serve.coordinator_overhead_ms": ms(
                    statistics.median(through.scaled)
                    - statistics.median(direct.scaled)
                ),
                "serve.start_s": setup.median("start"),
                "serve.latency_p95_ms_rate_lo": ms(
                    percentile(lo["samples"].scaled, 0.95)
                ),
                "serve.slo_miss_ratio": hi["slo_miss_ratio"],
                "serve.generator_lag_p95_ms": hi["lag_p95_ms"],
                "serve.backlog_max": float(hi["backlog_max"]),
                # The SLO summaries are the coordinator's own histograms:
                # raw seconds, bucket-interpolated.
                "serve.fanout_p50_ms": ms(slo["fanout"]["p50"]),
                "serve.partition_service_p50_ms": ms(
                    slo["partition_service"]["p50"]
                ),
                "serve.merge_p50_ms": ms(slo["merge"]["p50"]),
                "serve.hedges": float(stats["counters"]["hedges"]),
                "serve.worker_errors": float(
                    stats["counters"]["worker_errors"]
                ),
                "pruning.plan_cache_hit_ratio": (
                    plans.plan_cache_hits / planned if planned else 0.0
                ),
                "executor.range_seeks": io["range_seeks"] / ops,
                "executor.retries": io["retries"] / ops,
                "kvstore.rows_per_seek": io["rows_scanned"] / io["range_seeks"],
                "kvstore.bytes_read": io["bytes_read"] / ops,
                "local_filter.evaluations": io["filter_evaluations"] / ops,
            }
            details = {
                **setup.details(),
                **hi["samples"].details(),
                "rows_scanned_per_op": checker.rows_per_op(),
            }
    finally:
        if cluster is not None:
            cluster.stop()
    if not run.trace:
        # Children are reaped by ``stop()``; only then do they count.
        metrics["peak_rss_mb"] = peak_rss_mb(children=True)
    return metrics, details, checker


# ----------------------------------------------------------------------
# ingest: ingest_reopen
# ----------------------------------------------------------------------
class IngestCycles:
    """Repeated cycles, each on a fresh engine and directory: ingest in
    batches with a flush after each, query the multi-run store, save
    compact, reload, first query, query the ``.seg`` store."""

    def __init__(self, run: Run, checker: Checker, clock: Clock, rec=None):
        self.run = run
        self.checker = checker
        self.clock = clock
        self.loop = Loop(
            query_call("threshold"), run.queries, run.order, checker, clock
        )
        #: set in the traced run: every call below is then a root span
        #: and its raw wall time goes to the reconciliation
        self.rec: Optional[SpanRecorder] = rec
        self.walls: List[float] = []
        self.results: Optional[list] = None if rec is None else []
        #: reference seconds per cycle
        self.ingest_s: List[float] = []
        self.save_s: List[float] = []
        self.load_s: List[float] = []
        self.cold_s: List[float] = []
        self.samples = Samples()
        self.bytes_on_disk = 0
        #: ``IOMetrics`` totals of every engine's query ops
        self.io: Dict[str, int] = {}
        #: flush / compaction stats of the last ingest engine
        self.storage: Dict[str, Dict[str, float]] = {}

    def _timed(self, name: str, fn: Callable):
        """A call the cycle makes itself (in the traced run: a root)."""
        if self.rec is None:
            out, seconds, _ = self.clock.timed(fn)
            return out, seconds

        def recorded():
            with self.rec.span(name):
                return fn()

        out, seconds, raw = self.clock.timed(recorded)
        self.walls.append(raw)
        return out, seconds

    def _query(self, engine, i: int) -> None:
        self.loop.one(engine, i, self.samples, self.results)
        if self.rec is not None:
            self.walls.append(self.samples.raw[-1])

    def _absorb_io(self, engine) -> None:
        for name, value in engine.metrics.snapshot().items():
            self.io[name] = self.io.get(name, 0) + value

    def cycle(self) -> None:
        data, directory = self.run.world.data, self.run.store_dir
        order = self.run.order
        engine = TraSS(wl.engine_config())
        if self.rec is not None:
            instrument_engine(self.rec, engine)
        batch = -(-len(data) // wl.INGEST_BATCHES)
        ingest = 0.0
        for lo in range(0, len(data), batch):
            # In the traced run ``add_all`` is a wrapped root itself.
            _, added, raw = self.clock.timed(
                lambda: engine.add_all(data[lo : lo + batch])
            )
            if self.rec is not None:
                self.walls.append(raw)
            _, flushed = self._timed(
                "kvstore.flush", engine.store.table.flush_all
            )
            ingest += added + flushed
        self.ingest_s.append(ingest)
        for i in order:
            self._query(engine, i)
        self._absorb_io(engine)
        storage = engine.stats()["storage"]
        self.storage = {k: storage[k] for k in ("flush", "compaction")}
        shutil.rmtree(directory, ignore_errors=True)
        _, saved = self._timed(
            "persistence.save", lambda: engine.save(directory, compact=True)
        )
        self.save_s.append(saved)
        self.bytes_on_disk = directory_bytes(directory)
        reopened, loaded = self._timed(
            "persistence.load", lambda: TraSS.load(directory)
        )
        self.load_s.append(loaded)
        if self.rec is not None:
            instrument_engine(self.rec, reopened)
        # The cold first answer is always query 0's, whatever the order.
        self._query(reopened, 0)
        self.cold_s.append(loaded + self.samples.scaled[-1])
        for i in order:
            if i != 0:
                self._query(reopened, i)
        self._absorb_io(reopened)

    def program_s(self) -> float:
        """Reference seconds inside the program's own calls."""
        return (
            sum(self.ingest_s) + sum(self.save_s) + sum(self.load_s)
            + sum(self.samples.scaled)
        )

    def run_for(self, seconds: float) -> "IngestCycles":
        started = perf_counter()
        while True:
            cycle_started = perf_counter()
            self.cycle()
            now = perf_counter()
            if now + (now - cycle_started) / 2.0 >= started + seconds:
                return self


def run_ingest(run: Run):
    world = run.world
    checker = run.checker()
    clock = Clock()
    setup = Setup(clock)
    for _ in range(wl.SETUP_REPEATS):
        warm = IngestCycles(run, checker, clock)
        warm.cycle()
        setup.begin_repetition()["cycle"] = warm.program_s()
    user_bytes = POINT_BYTES * world.points

    if not run.trace:
        done = IngestCycles(run, checker, clock).run_for(run.seconds)
        metrics = {
            "setup_s": statistics.median(setup.totals),
            **done.samples.metrics(),
            "rows_scanned_per_op": checker.rows_per_op(),
            "peak_rss_mb": peak_rss_mb(),
            "ingest_traj_per_s": len(world.data)
            / statistics.median(done.ingest_s),
            "cold_first_answer_ms": ms(statistics.median(done.cold_s)),
            "space_amp": done.bytes_on_disk / user_bytes,
        }
        details = {
            **setup.details(),
            **done.samples.details(),
            "cycles": len(done.ingest_s),
        }
        return metrics, details, checker

    untraced = IngestCycles(run, checker, clock).run_for(
        run.seconds * wl.UNTRACED_SHARE
    )
    rec = SpanRecorder()
    instrument_process(rec)
    mark = len(clock.samples)
    done = IngestCycles(run, checker, clock, rec).run_for(
        run.seconds * (1.0 - wl.UNTRACED_SHARE)
    )
    summary = rec.summary()
    if done.io["rows_scanned"] != sum(r.retrieved_rows for r in done.results):
        checker.mismatch("IOMetrics.rows_scanned disagrees with the results")
    factor = clock.factor_since(mark)
    self_s = summary["self_s"]
    cycles = len(done.ingest_s)
    ops = len(done.samples)
    stored = len(world.data) * cycles
    flush, compaction = done.storage["flush"], done.storage["compaction"]

    def per_traj_ms(name: str) -> float:
        return ms(self_s.get(name, 0.0)) * factor / stored

    metrics = {
        **query_layer_metrics(summary, ops, factor),
        **result_layer_metrics(
            done.results, done.io, wl.engine_config().shards
        ),
        "features.self_ms_per_traj": per_traj_ms("features.extract"),
        "index.encode_self_ms_per_traj": per_traj_ms("index.encode"),
        "codec.encode_self_ms_per_traj": per_traj_ms("codec.encode"),
        "kvstore.put_self_ms_per_traj": per_traj_ms("kvstore.put"),
        "kvstore.flush_s": self_s.get("kvstore.flush", 0.0) * factor / cycles,
        "kvstore.flush_count": float(flush["count"]),
        "kvstore.compaction_s": float(compaction["seconds"]) * factor,
        "kvstore.write_amp": (
            flush["bytes"] + compaction["bytes"] + done.bytes_on_disk
        )
        / user_bytes,
        "kvstore.segment_blocks_materialized": (
            done.io["segment_blocks_materialized"] / cycles
        ),
        "persistence.save_s": statistics.median(done.save_s),
        "persistence.load_s": statistics.median(done.load_s),
        "persistence.bytes_on_disk": float(done.bytes_on_disk),
        "kvstore.empty_seek_ratio": rec.empty_seeks / max(1, rec.seeks),
        "trace.residue_ratio": reconcile(summary, done.walls),
        "trace.overhead_ratio": slowdown(done.samples, untraced.samples),
    }
    details = {
        **setup.details(),
        **done.samples.details(),
        "cycles": cycles,
        "spans": summary["spans"],
        "layer_shares": layer_shares(self_s),
        "rows_scanned_per_op": checker.rows_per_op(),
    }
    if run.spans_out:
        rec.dump(run.spans_out)
    return metrics, details, checker


HARNESSES = {"read": run_read, "cluster": run_cluster, "ingest": run_ingest}
