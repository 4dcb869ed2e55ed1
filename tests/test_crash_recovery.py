"""Crash-point recovery: a kill at any injected site on the durable
write path recovers exactly the acknowledged writes.

The harness drives a ``DurableKVTable`` with ``sync=True`` (a mutation
is *acknowledged* once its WAL record is fsynced and the call returns),
kills the process at a scheduled crash site via ``SimulatedCrash``,
then recovers from the on-disk state alone — no flush, no close, just
what a ``kill -9`` would have left behind.

Acknowledged-write semantics per site:

* ``wal.append.pre`` / ``wal.append.torn`` — the in-flight record never
  became durable (or only half of it did): recovery yields exactly the
  acked writes.
* ``wal.append.post`` and the memtable-flush sites — the in-flight
  record was fsynced before the death: recovery yields the acked writes
  plus that one in-flight mutation (legitimate WAL semantics: durable
  but unacknowledged).
* every checkpoint site — all writes were acked before ``checkpoint()``
  started: recovery must yield exactly the acked writes, whichever of
  the old/new snapshot + WAL combinations the crash left behind.
"""

import os

import pytest

from repro.kvstore import DurableKVTable, KVTable, ScanRange, load_table
from repro.kvstore.faults import (
    ALL_CRASH_SITES,
    CRASH_CHECKPOINT_MANIFEST_POST,
    CRASH_CHECKPOINT_MANIFEST_PRE,
    CRASH_CHECKPOINT_MANIFEST_TORN,
    CRASH_CHECKPOINT_REGION_PRE,
    CRASH_CHECKPOINT_REGION_TORN,
    CRASH_CHECKPOINT_WAL_TRUNCATE_PRE,
    CRASH_MEMTABLE_FLUSH_POST,
    CRASH_MEMTABLE_FLUSH_PRE,
    CRASH_WAL_APPEND_POST,
    CRASH_WAL_APPEND_PRE,
    CRASH_WAL_APPEND_TORN,
    FaultInjector,
    FaultSchedule,
    SimulatedCrash,
)

pytestmark = pytest.mark.chaos

WAL_SITES = (
    CRASH_WAL_APPEND_PRE,
    CRASH_WAL_APPEND_TORN,
    CRASH_WAL_APPEND_POST,
)
FLUSH_SITES = (CRASH_MEMTABLE_FLUSH_PRE, CRASH_MEMTABLE_FLUSH_POST)
CHECKPOINT_SITES = (
    CRASH_CHECKPOINT_REGION_PRE,
    CRASH_CHECKPOINT_REGION_TORN,
    CRASH_CHECKPOINT_MANIFEST_PRE,
    CRASH_CHECKPOINT_MANIFEST_TORN,
    CRASH_CHECKPOINT_MANIFEST_POST,
    CRASH_CHECKPOINT_WAL_TRUNCATE_PRE,
)


def make_ops(n=40):
    """A deterministic mixed workload: puts, overwrites, deletes."""
    ops = []
    for i in range(n):
        key = f"key{i % 25:03d}".encode()
        if i % 7 == 3:
            ops.append(("delete", key, b""))
        else:
            ops.append(("put", key, f"value{i}".encode()))
    return ops


def apply_op(state, op):
    kind, key, value = op
    if kind == "put":
        state[key] = value
    else:
        state.pop(key, None)


def table_state(table):
    return dict(table.scan_ranges([ScanRange(None, None)]))


def run_until_crash(durable, ops):
    """Apply ops until the scheduled crash fires.

    Returns ``(acked, inflight)``: the state built from mutations whose
    call returned, and the single mutation that was in flight when the
    process died (or None if the workload completed).
    """
    acked = {}
    for op in ops:
        try:
            if op[0] == "put":
                durable.put(op[1], op[2])
            else:
                durable.delete(op[1])
        except SimulatedCrash:
            return acked, op
        apply_op(acked, op)
    return acked, None


def test_every_crash_site_is_exercised():
    assert set(WAL_SITES + FLUSH_SITES + CHECKPOINT_SITES) == set(
        ALL_CRASH_SITES
    )


@pytest.mark.parametrize("hit", [1, 7, 23])
@pytest.mark.parametrize("site", WAL_SITES)
def test_wal_append_crash_recovers_acked_writes(tmp_path, site, hit):
    directory = str(tmp_path / "tbl")
    injector = FaultInjector(FaultSchedule(crash_sites={site: hit}))
    durable = DurableKVTable(
        KVTable(flush_threshold=8, max_region_rows=30),
        directory,
        sync=True,
        fault_injector=injector,
    )
    acked, inflight = run_until_crash(durable, make_ops())
    assert inflight is not None, "crash never fired"
    assert injector.crashes == [site]

    # kill -9: recover from disk alone, no flush/close on the victim.
    recovered = table_state(load_table(directory))
    if site == CRASH_WAL_APPEND_POST:
        # The in-flight record was fsynced before the death: durable
        # but unacknowledged, so recovery legitimately includes it.
        apply_op(acked, inflight)
    assert recovered == acked


@pytest.mark.parametrize("hit", [1, 3])
@pytest.mark.parametrize("site", FLUSH_SITES)
def test_memtable_flush_crash_recovers_from_wal(tmp_path, site, hit):
    directory = str(tmp_path / "tbl")
    injector = FaultInjector(FaultSchedule(crash_sites={site: hit}))
    table = KVTable(flush_threshold=5, max_region_rows=10_000)
    durable = DurableKVTable(
        table, directory, sync=True, fault_injector=injector
    )
    for region in table.regions:
        region.store.fault_injector = injector

    acked, inflight = run_until_crash(durable, make_ops())
    assert inflight is not None, "crash never fired"
    # The flush dies *after* the WAL append fsynced the in-flight
    # record: everything acked — plus that record — replays.
    apply_op(acked, inflight)
    assert table_state(load_table(directory)) == acked


@pytest.mark.parametrize("site", CHECKPOINT_SITES)
def test_checkpoint_crash_preserves_acked_writes(tmp_path, site):
    directory = str(tmp_path / "tbl")
    # Several regions so the checkpoint writes multiple region files.
    table = KVTable(flush_threshold=6, max_region_rows=12)
    durable = DurableKVTable(table, directory, sync=True)
    ops = make_ops(36)

    acked = {}
    for op in ops[:18]:
        if op[0] == "put":
            durable.put(op[1], op[2])
        else:
            durable.delete(op[1])
        apply_op(acked, op)
    durable.checkpoint()  # clean generation-1 snapshot
    for op in ops[18:]:
        if op[0] == "put":
            durable.put(op[1], op[2])
        else:
            durable.delete(op[1])
        apply_op(acked, op)

    injector = FaultInjector(FaultSchedule(crash_sites={site: 1}))
    durable.fault_injector = injector
    with pytest.raises(SimulatedCrash) as excinfo:
        durable.checkpoint()
    assert excinfo.value.site == site

    # Every write was acked before the checkpoint started, so whatever
    # snapshot/WAL combination the crash left must recover all of them.
    assert table_state(load_table(directory)) == acked


def test_recovered_store_resumes_and_checkpoints_cleanly(tmp_path):
    """Full round trip: crash mid-checkpoint, recover, keep writing,
    checkpoint again — and the next checkpoint sweeps the debris."""
    directory = str(tmp_path / "tbl")
    durable = DurableKVTable(
        KVTable(flush_threshold=6, max_region_rows=12),
        directory,
        sync=True,
    )
    expected = {}
    for op in make_ops(20):
        if op[0] == "put":
            durable.put(op[1], op[2])
        else:
            durable.delete(op[1])
        apply_op(expected, op)
    durable.checkpoint()

    durable.fault_injector = FaultInjector(
        FaultSchedule(crash_sites={CRASH_CHECKPOINT_REGION_TORN: 1})
    )
    durable.put(b"zz-post-snapshot", b"v")
    expected[b"zz-post-snapshot"] = b"v"
    with pytest.raises(SimulatedCrash):
        durable.checkpoint()
    # The aborted generation left a torn .seg behind.
    debris = [
        name
        for name in os.listdir(directory)
        if name.endswith(".seg") and name.startswith("region-00002-")
    ]
    assert debris

    # Restart: recover, mutate, checkpoint cleanly.
    recovered_table = load_table(directory)
    assert table_state(recovered_table) == expected
    with DurableKVTable(recovered_table, directory, sync=True) as survivor:
        survivor.put(b"zz-after-recovery", b"w")
        expected[b"zz-after-recovery"] = b"w"
        survivor.checkpoint()

    final = load_table(directory)
    assert table_state(final) == expected
    # The successful checkpoint swept every stale generation: only
    # files of the manifest's live generation remain.
    import json

    with open(os.path.join(directory, "MANIFEST.json")) as fh:
        manifest_gen = json.load(fh)["generation"]
    for name in os.listdir(directory):
        if name.endswith(".seg"):
            assert name.startswith(f"region-{manifest_gen:05d}-")


def test_crash_schedule_is_deterministic(tmp_path):
    """Same seed + workload + site => identical acked set and artefacts."""
    results = []
    for run in ("a", "b"):
        directory = str(tmp_path / run)
        injector = FaultInjector(
            FaultSchedule(crash_sites={CRASH_WAL_APPEND_TORN: 9})
        )
        durable = DurableKVTable(
            KVTable(flush_threshold=8, max_region_rows=30),
            directory,
            sync=True,
            fault_injector=injector,
        )
        acked, inflight = run_until_crash(durable, make_ops())
        results.append((acked, inflight, table_state(load_table(directory))))
    assert results[0] == results[1]
