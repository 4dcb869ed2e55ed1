"""Table persistence: save/load a :class:`KVTable` as a directory.

Layout::

    <dir>/MANIFEST.json            table metadata + region boundaries
    <dir>/region-GGGGG-00000.seg   one compact segment per region,
                                   named by checkpoint *generation*
    <dir>/wal.log                  mutation log for writes after the
                                   snapshot

``save_table`` snapshots each region into a compact segment file
(:mod:`~repro.kvstore.segment`, the store's one on-disk format);
``load_table`` maps the segments back lazily and replays any WAL tail,
giving the embedded store the full HBase durability story in
miniature: snapshot + log = recoverable state.

Crash-safety of the checkpoint itself (the hardening a real kill
demands):

* region files are written under a fresh generation number — a
  checkpoint never overwrites the files the current manifest points at,
  so dying mid-write leaves the previous snapshot fully intact;
* the manifest is written by :func:`write_atomic` — a temporary file,
  fsynced, then atomically ``os.replace``\\ d into place — so readers
  see either the old or the new manifest, never a torn one;
* the WAL is deleted only *after* the new manifest is durable, so a
  crash between those steps merely replays writes the snapshot already
  holds (puts and deletes are idempotent);
* stale files from superseded or aborted generations are swept last,
  and again on the next successful checkpoint.

Killing the process at any :mod:`~repro.kvstore.faults` crash point in
this sequence therefore recovers exactly the acknowledged writes — the
property ``tests/test_crash_recovery.py`` proves site by site.
"""

from __future__ import annotations

import base64
import json
import os
from typing import Optional

from repro.exceptions import KVStoreError
from repro.kvstore.faults import (
    CRASH_CHECKPOINT_MANIFEST_POST,
    CRASH_CHECKPOINT_MANIFEST_PRE,
    CRASH_CHECKPOINT_MANIFEST_TORN,
    CRASH_CHECKPOINT_REGION_PRE,
    CRASH_CHECKPOINT_REGION_TORN,
    CRASH_CHECKPOINT_WAL_TRUNCATE_PRE,
)
from repro.kvstore.segment import Segment, build_segment_bytes
from repro.kvstore.table import KVTable
from repro.kvstore.wal import OP_DELETE, OP_PUT, WriteAheadLog

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"
#: version 3 is the compact-segment layout; versions 1 and 2 held
#: plain SSTable region files, which are no longer readable.
FORMAT_VERSION = 3


def _encode_key(key: Optional[bytes]) -> Optional[str]:
    return None if key is None else base64.b16encode(key).decode("ascii")


def _decode_key(text: Optional[str]) -> Optional[bytes]:
    return None if text is None else base64.b16decode(text.encode("ascii"))


def _fsync_file(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path: str, text: str) -> None:
    """Replace ``path`` with ``text``: write a temporary sibling, fsync
    it, then ``os.replace`` it into place — a reader (or a crash) sees
    the old file or the new one, never a torn one."""
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, path)


def read_json(path: str) -> dict:
    """Parse a JSON file of a saved store; a torn or corrupt file raises
    :class:`KVStoreError` naming it (a missing one raises
    ``FileNotFoundError`` for the caller to interpret)."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise KVStoreError(
                f"corrupt {os.path.basename(path)} in "
                f"{os.path.dirname(path)}: {exc}"
            ) from exc


def _read_manifest(directory: str) -> dict:
    try:
        manifest = read_json(os.path.join(directory, MANIFEST_NAME))
    except FileNotFoundError:
        raise KVStoreError(f"no manifest in {directory}") from None
    version = manifest.get("format_version")
    if version in (1, 2):
        raise KVStoreError(
            f"table format {version} in {directory} holds plain .sst "
            "snapshots, which are no longer readable; rebuild the store "
            "from its source data"
        )
    if version != FORMAT_VERSION:
        raise KVStoreError(f"unsupported table format {version!r}")
    return manifest


def _current_generation(directory: str) -> int:
    try:
        return int(_read_manifest(directory).get("generation", 0))
    except KVStoreError:
        return 0


def _sweep_stale_files(directory: str, keep: set) -> None:
    """Remove checkpoint debris not referenced by the live manifest."""
    for name in os.listdir(directory):
        if name in keep:
            continue
        if name.startswith("region-") or name.endswith(".tmp"):
            try:
                os.remove(os.path.join(directory, name))
            except OSError:  # pragma: no cover - best-effort sweep
                pass


def save_table(table: KVTable, directory: str, fault_injector=None) -> None:
    """Snapshot ``table`` into ``directory`` (created if missing).

    Each region is written as one compressed columnar ``.seg`` file,
    loadable lazily through ``mmap``.  The checkpoint is atomic: until
    the manifest rename lands, a crash leaves the previous snapshot (and
    the WAL) untouched.
    """
    os.makedirs(directory, exist_ok=True)
    injector = fault_injector
    generation = _current_generation(directory) + 1
    regions = []
    for i, region in enumerate(table.regions):
        filename = f"region-{generation:05d}-{i:05d}.seg"
        path = os.path.join(directory, filename)
        if injector is not None:
            injector.crash_point(CRASH_CHECKPOINT_REGION_PRE)
        blob = build_segment_bytes(region.store.scan())
        if injector is not None and injector.should_crash(
            CRASH_CHECKPOINT_REGION_TORN
        ):
            with open(path, "wb") as fh:
                fh.write(blob[: max(1, len(blob) // 2)])
            injector.crash(CRASH_CHECKPOINT_REGION_TORN)
        with open(path, "wb") as fh:
            fh.write(blob)
        _fsync_file(path)
        regions.append(
            {
                "file": filename,
                "start_key": _encode_key(region.start_key),
                "end_key": _encode_key(region.end_key),
            }
        )
    manifest = {
        "format_version": FORMAT_VERSION,
        "generation": generation,
        "name": table.name,
        "max_region_rows": table.max_region_rows,
        "flush_threshold": table.flush_threshold,
        "regions": regions,
    }
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if injector is not None:
        injector.crash_point(CRASH_CHECKPOINT_MANIFEST_PRE)
    text = json.dumps(manifest, indent=2)
    if injector is not None and injector.should_crash(
        CRASH_CHECKPOINT_MANIFEST_TORN
    ):
        with open(manifest_path + ".tmp", "w") as fh:
            fh.write(text[: len(text) // 2])
        injector.crash(CRASH_CHECKPOINT_MANIFEST_TORN)
    write_atomic(manifest_path, text)
    if injector is not None:
        injector.crash_point(CRASH_CHECKPOINT_MANIFEST_POST)
    # The snapshot is durable; the log it supersedes can go, and stale
    # generations with it.
    if injector is not None:
        injector.crash_point(CRASH_CHECKPOINT_WAL_TRUNCATE_PRE)
    wal_path = os.path.join(directory, WAL_NAME)
    if os.path.exists(wal_path):
        os.remove(wal_path)
    _sweep_stale_files(directory, {entry["file"] for entry in regions})


def load_table(directory: str) -> KVTable:
    """Restore a table saved with :func:`save_table`, replaying the WAL.

    Tolerates every crash artefact an interrupted checkpoint can leave:
    a stray ``MANIFEST.json.tmp``, torn or orphaned region files from an
    aborted generation, a WAL whose contents the snapshot already
    absorbed (replay is idempotent), and a directory with a WAL but no
    manifest at all — a store that died before its first checkpoint.
    A *corrupt* manifest still raises: that is data loss, not a fresh
    store.
    """
    manifest: Optional[dict] = None
    if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
        manifest = _read_manifest(directory)
    elif not os.path.exists(os.path.join(directory, WAL_NAME)):
        raise KVStoreError(f"no manifest or WAL in {directory}")

    if manifest is None:
        table = KVTable()
        for op, key, value in WriteAheadLog.replay(
            os.path.join(directory, WAL_NAME)
        ):
            if op == OP_PUT:
                table.put(key, value)
            else:
                table.delete(key)
        return table

    table = KVTable(
        name=manifest["name"],
        max_region_rows=manifest["max_region_rows"],
        flush_threshold=manifest["flush_threshold"],
    )
    from repro.kvstore.region import Region

    regions = []
    for entry in manifest["regions"]:
        region = Region(
            _decode_key(entry["start_key"]),
            _decode_key(entry["end_key"]),
            manifest["flush_threshold"],
        )
        # mmap-backed and lazily materialised: the load touches only
        # each segment's header/index/bloom sections.
        run = Segment.open(os.path.join(directory, entry["file"]))
        table.adopt_segment(run)
        region.store.sstables = [run]
        region.row_count = len(run)
        regions.append(region)
    if regions:
        table.regions = regions

    # Replay writes that landed after the snapshot.
    for op, key, value in WriteAheadLog.replay(os.path.join(directory, WAL_NAME)):
        if op == OP_PUT:
            table.put(key, value)
        else:
            table.delete(key)
    return table


class DurableKVTable:
    """A :class:`KVTable` wrapper that logs every mutation to a WAL.

    Use :meth:`checkpoint` periodically to snapshot; on restart,
    :func:`load_table` restores the snapshot and replays the log.  A
    context manager (``with DurableKVTable(...) as t: ...``) so handles
    are closed deterministically instead of by garbage collection;
    ``close()`` is idempotent.

    With ``sync=True`` a mutation is acknowledged (the call returns)
    only after its WAL record is fsynced — the durability point the
    crash-recovery suite asserts against.
    """

    def __init__(
        self,
        table: KVTable,
        directory: str,
        sync: bool = False,
        fault_injector=None,
    ):
        os.makedirs(directory, exist_ok=True)
        self.table = table
        self.directory = directory
        self.fault_injector = fault_injector
        self.wal = WriteAheadLog(
            os.path.join(directory, WAL_NAME),
            sync=sync,
            fault_injector=fault_injector,
        )

    def put(self, key: bytes, value: bytes) -> None:
        self.wal.append_put(bytes(key), bytes(value))
        self.table.put(key, value)

    def delete(self, key: bytes) -> None:
        self.wal.append_delete(bytes(key))
        self.table.delete(key)

    def checkpoint(self) -> None:
        """Snapshot the table and truncate the log."""
        self.wal.flush()
        save_table(self.table, self.directory, self.fault_injector)
        self.wal.truncate()

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableKVTable":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name):
        return getattr(self.table, name)
