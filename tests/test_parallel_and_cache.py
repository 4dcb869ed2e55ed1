"""Multi-tier cache equivalence and soundness.

Pins the acceptance properties of the cache tiers:

(a) caches are observationally invisible — same answers (exact
    distances included), same candidate/row counters, same
    completeness, caches on or off, also in degraded mode under a
    seeded fault schedule;
(b) a warm pass is served from the caches: every plan, scan block and
    decoded record of a repeated workload is a hit;
(c) a cache can never serve a stale row: cache keys embed the table's
    mutation ``generation``, which every put/delete/split/flush/
    compaction bumps, so any mutation makes all prior entries
    unreachable — checked as a property over random op sequences;
(d) LRU accounting stays consistent: ``clear()`` resets statistics
    with the entries, invalidations are counted, and the hit rate is
    ``hits / (hits + misses)``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TraSS, TraSSConfig
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like
from repro.kvstore.cache import ObjectLRUCache
from repro.kvstore.faults import FaultInjector, FaultSchedule
from repro.kvstore.table import KVTable


def build_engine(cache_mb=0.0, n=120, seed=11, **overrides):
    data = tdrive_like(n, seed=seed)
    config = TraSSConfig(
        bounds=TDRIVE_BOUNDS,
        max_resolution=12,
        dp_tolerance=0.005,
        shards=4,
        cache_mb=cache_mb,
        **overrides,
    )
    return TraSS.build(data, config), data


def run_workload(engine, data, eps=0.02, k=5, n_queries=6, passes=1):
    """A fixed query mix; returns every observable a caller could see."""
    out = []
    for _ in range(passes):
        for query in data[:n_queries]:
            t = engine.threshold_search(query, eps)
            top = engine.topk_search(query, k)
            out.append(
                (
                    dict(t.answers),  # exact distances, not just ids
                    t.candidates,
                    t.retrieved_rows,
                    t.completeness,
                    t.resilience.ranges_total,
                    t.resilience.ranges_completed,
                    top.answers,
                    top.candidates,
                    top.retrieved_rows,
                    top.completeness,
                )
            )
    return out


class TestCacheEquivalence:
    def test_cached_equals_uncached_answers(self):
        """Two passes (cold then warm) with caches on agree exactly
        with the uncached engine — the cache sits below the accounting."""
        cold, data = build_engine(cache_mb=0.0)
        warm, _ = build_engine(cache_mb=16.0)
        assert run_workload(cold, data, passes=2) == run_workload(
            warm, data, passes=2
        )
        snap = warm.metrics.snapshot()
        assert snap["block_cache_hits"] > 0
        assert snap["record_cache_hits"] > 0

    @pytest.mark.chaos
    def test_identical_degraded_completeness(self):
        """Unmaskable faults in degraded mode: caches on or off, the
        same seeded schedule skips exactly the same ranges and reports
        the same completeness."""
        kwargs = dict(retry_max_attempts=1, degraded_mode=True)
        cold, data = build_engine(cache_mb=0.0, **kwargs)
        warm, _ = build_engine(cache_mb=16.0, **kwargs)
        results = []
        for engine in (cold, warm):
            engine.install_fault_injector(
                FaultInjector(
                    FaultSchedule(
                        seed=29,
                        region_unavailable_prob=0.5,
                        max_consecutive_failures=3,
                    )
                )
            )
            try:
                runs = []
                for query in data[:6]:
                    t = engine.threshold_search(query, 0.02)
                    runs.append(
                        (
                            dict(t.answers),
                            t.completeness,
                            [
                                (r.start, r.stop)
                                for r in t.skipped_ranges
                            ],
                        )
                    )
                results.append(runs)
            finally:
                engine.install_fault_injector(None)
        assert results[0] == results[1]
        assert any(c < 1.0 for _, c, _ in results[0])


class TestWarmCaches:
    def test_warm_pass_is_all_hits(self):
        """The mechanism behind the warm-cache speed-up, by counters:
        after one warming pass a second identical pass plans nothing,
        merges no LSM run and decodes no row (every record-cache miss
        is exactly one ``decode_row``; 64 MiB holds the store whole) —
        and answers what the cold engine answers."""
        engine, data = build_engine(n=400, seed=17, plan_cache_size=0)
        queries = [(q, eps) for q in data[:10] for eps in (0.005, 0.02)]

        def one_pass():
            return [
                dict(engine.threshold_search(q, eps).answers)
                for q, eps in queries
            ]

        cold_answers = one_pass()
        engine.configure_execution(cache_mb=64.0, plan_cache_size=128)
        assert one_pass() == cold_answers  # warms every tier
        before = engine.metrics.snapshot()
        assert one_pass() == cold_answers
        delta = engine.metrics.diff(before)
        assert delta["plan_cache_hits"] == len(queries)
        assert delta["plan_cache_misses"] == 0
        assert delta["block_cache_misses"] == 0
        assert delta["record_cache_misses"] == 0
        assert delta["block_cache_hits"] > 0
        assert delta["record_cache_hits"] > 0


# ----------------------------------------------------------------------
# Cache staleness: property over random mutate/read interleavings
# ----------------------------------------------------------------------

_KEYS = st.integers(0, 15)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEYS, st.integers(0, 5)),
        st.tuples(st.just("delete"), _KEYS),
        st.tuples(st.just("flush")),
        st.tuples(st.just("compact")),
        st.tuples(st.just("scan"), _KEYS, _KEYS),
        st.tuples(st.just("get"), _KEYS),
    ),
    max_size=40,
)


class TestCacheStaleness:
    @given(ops=_OPS)
    @settings(max_examples=60, deadline=None)
    def test_caches_never_serve_stale_rows(self, ops):
        """Random interleavings of writes, flushes, compactions and
        region splits against cached reads always match a dict model —
        a stale cached row after any mutation is impossible."""
        table = KVTable(name="t", max_region_rows=8)  # small: force splits
        table.enable_scan_cache(1 << 16)
        model = {}

        def k(i):
            return b"k%02d" % i

        for op in ops:
            if op[0] == "put":
                value = b"v%d-%d" % (op[1], op[2])
                table.put(k(op[1]), value)
                model[k(op[1])] = value
            elif op[0] == "delete":
                table.delete(k(op[1]))
                model.pop(k(op[1]), None)
            elif op[0] == "flush":
                table.flush_all()
            elif op[0] == "compact":
                table.compact_all()
            elif op[0] == "scan":
                lo, hi = sorted((op[1], op[2]))
                got = list(table.scan(k(lo), k(hi)))
                want = sorted(
                    (key, val)
                    for key, val in model.items()
                    if k(lo) <= key < k(hi)
                )
                assert got == want
            else:
                assert table.get(k(op[1])) == model.get(k(op[1]))

    def test_compaction_invalidates_scan_cache(self):
        table = KVTable(name="t")
        table.enable_scan_cache(1 << 16)
        table.put(b"a", b"1")
        assert list(table.scan()) == [(b"a", b"1")]
        assert list(table.scan()) == [(b"a", b"1")]  # warm hit
        assert table.metrics.block_cache_hits == 1
        table.compact_all()
        table.put(b"b", b"2")
        # Post-mutation scans rebuild from the store, never the cache.
        assert list(table.scan()) == [(b"a", b"1"), (b"b", b"2")]


# ----------------------------------------------------------------------
# LRU accounting
# ----------------------------------------------------------------------


class TestLRUAccounting:
    def test_clear_resets_entries_and_stats(self):
        cache = ObjectLRUCache(1024)
        cache.put(b"a", b"1", cost=2)
        cache.get(b"a")
        cache.get(b"missing")
        cache.invalidate(b"a")
        assert (cache.hits, cache.misses, cache.invalidations) == (1, 1, 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.current_cost == 0
        assert (
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.invalidations,
        ) == (0, 0, 0, 0)
        assert cache.hit_rate == 0.0

    def test_invalidate_missing_key_not_counted(self):
        cache = ObjectLRUCache(1024)
        cache.invalidate(b"nope")
        assert cache.invalidations == 0

    def test_hit_rate(self):
        cache = ObjectLRUCache(1024)
        assert cache.hit_rate == 0.0
        cache.put(b"a", b"1")
        cache.get(b"a")
        cache.get(b"a")
        cache.get(b"b")
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_object_cache_eviction_and_stats(self):
        cache = ObjectLRUCache(10)
        cache.put("a", "A", cost=6)
        cache.put("b", "B", cost=6)  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") == "B"
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 1
        assert stats["cost"] == 6
        assert stats["hit_rate"] == pytest.approx(0.5)
        cache.put("huge", "H", cost=11)  # over capacity: not cached
        assert cache.get("huge") is None
        cache.clear()
        assert cache.stats()["hits"] == 0
        assert cache.current_cost == 0

    def test_object_cache_reput_updates_cost(self):
        cache = ObjectLRUCache(10)
        cache.put("a", "A", cost=4)
        cache.put("a", "A2", cost=7)
        assert cache.current_cost == 7
        assert cache.get("a") == "A2"
        cache.invalidate("a")
        assert cache.invalidations == 1
        assert cache.current_cost == 0
