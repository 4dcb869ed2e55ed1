"""Top-k walks only occupied space.

XZ* numbers index spaces depth-first, so an element's subtree and its
own code block are contiguous value ranges, and top-k asks the store
whether one holds a key before queueing the element or ranking its
codes.  A range without a key holds no row, so the answers must equal
brute force over every layout the probe reads:

* memtable only, flushed runs, a loaded ``.seg`` snapshot and a table
  split into many regions;
* one shard and eight (salts);
* the integer and the TraSS-S string key encodings;

for every indexed measure and ``k`` from 1 to past the store size.
The regressions pin what the probe buys: an empty store, an oversized
``k`` and a query outside the data's extent no longer walk thousands of
empty elements.
"""

import math

import pytest

from repro import TraSS, TraSSConfig, Trajectory
from repro.baselines.brute import BruteForceBaseline
from repro.core.storage import INTEGER_KEYS, STRING_KEYS
from repro.data.generators import TDRIVE_BOUNDS, tdrive_like

MEASURES = ("frechet", "hausdorff", "dtw")
STORE_SIZE = 40
LAYOUTS = ("memtable", "flushed", "segment", "regions")


def distances(answers):
    return sorted(d for d, _ in answers)


def make_engine(data, layout, shards, key_encoding, tmp_path_factory):
    config = TraSSConfig(
        bounds=TDRIVE_BOUNDS,
        max_resolution=12,
        shards=shards,
        max_region_rows=6 if layout == "regions" else 100_000,
    )
    engine = TraSS.build(data, config, key_encoding)
    if layout == "flushed":
        engine.store.table.flush_all()
    elif layout == "segment":
        directory = str(tmp_path_factory.mktemp("seg"))
        engine.save(directory)
        engine = TraSS.load(directory)
    return engine


@pytest.fixture(scope="module")
def data():
    return tdrive_like(STORE_SIZE, seed=23)


@pytest.fixture(scope="module")
def cases(data):
    """``(measure, k, query, brute-force distances)``, computed once for
    every layout."""
    out = []
    for name in MEASURES:
        brute = BruteForceBaseline(name)
        brute.build(data)
        for k in (1, 10, STORE_SIZE + 5):
            for query in data[:: STORE_SIZE // 2]:
                want = distances(brute.topk_search(query, k).ranked)
                out.append((name, k, query, want))
    return out


@pytest.mark.parametrize("key_encoding", [INTEGER_KEYS, STRING_KEYS])
@pytest.mark.parametrize("shards", [1, 8])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_answers_equal_brute_force(
    data, cases, layout, shards, key_encoding, tmp_path_factory
):
    engine = make_engine(data, layout, shards, key_encoding, tmp_path_factory)
    if layout == "regions":
        assert len(engine.store.table.regions) > 1
    for name, k, query, want in cases:
        got = engine.topk_search(query, k, measure=name)
        assert distances(got.answers) == want, (name, k, query.tid)
        assert got.completeness == 1.0


def test_empty_store_expands_nothing():
    engine = TraSS(TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=12))
    query = tdrive_like(1, seed=5)[0]
    with engine.traced() as tracer:
        result = engine.topk_search(query, 1)
    assert result.answers == []
    assert result.elements_expanded == 0
    assert result.units_scanned == 0
    search = tracer.traces()[-1].find("search")[0]
    assert search.attrs["empty_subtrees"] == 1


def test_k_beyond_store_size_stays_far_below_budget():
    data = tdrive_like(200, seed=29)
    engine = TraSS.build(
        data, TraSSConfig(bounds=TDRIVE_BOUNDS, max_resolution=12, shards=4)
    )
    result = engine.topk_search(data[0], 1000)
    assert len(result.answers) == len(data)
    assert result.elements_expanded <= 500
    assert result.elements_expanded < engine.config.max_planned_elements // 8


def test_query_outside_the_data_extent():
    data = tdrive_like(150, seed=31)
    engine = TraSS.build(
        data,
        TraSSConfig(
            bounds=TDRIVE_BOUNDS, max_resolution=12, max_region_rows=15
        ),
    )
    assert len(engine.store.table.regions) >= 5
    # Beyond the space bounds' north-east corner: every stored
    # trajectory is far, so nearest-first search reaches no answer early.
    x, y = TDRIVE_BOUNDS.max_x + 0.5, TDRIVE_BOUNDS.max_y + 0.5
    query = Trajectory("outside", [(x, y), (x + 0.01, y + 0.005)])
    brute = BruteForceBaseline("frechet")
    brute.build(data)
    result = engine.topk_search(query, 10)
    assert result.elements_expanded <= 200
    assert distances(result.answers) == distances(
        brute.topk_search(query, 10).ranked
    )
    assert math.isfinite(result.worst_distance)
