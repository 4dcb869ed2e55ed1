"""Embedded HBase-like key-value store.

The paper instantiates TraSS on HBase; this package is the stand-in
substrate: a log-structured store with sorted memtables, immutable
SSTables, bloom filters and compaction (:mod:`lsm`), split into
key-range *regions* (:mod:`region`) behind a table facade
(:mod:`table`) that supports salted row keys, multi-range scans and
server-side filter push-down ("coprocessors").  Every read path is
instrumented (:mod:`metrics`) because the paper's central claims are
about I/O — rows scanned vs. rows returned.
"""

from repro.kvstore.metrics import IOMetrics
from repro.kvstore.rowkey import (
    encode_rowkey,
    decode_rowkey,
    encode_string_rowkey,
    decode_string_rowkey,
)
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.memtable import MemTable
from repro.kvstore.sstable import SSTable
from repro.kvstore.lsm import LSMStore
from repro.kvstore.region import Region
from repro.kvstore.filters import RowFilter, AcceptAllFilter, PredicateFilter
from repro.kvstore.table import KVTable, ScanRange
from repro.kvstore.wal import WriteAheadLog
from repro.kvstore.faults import (
    ALL_CRASH_SITES,
    FaultInjector,
    FaultSchedule,
    SimulatedCrash,
)
from repro.kvstore.cluster import ClusterModel
from repro.kvstore.persistence import (
    DurableKVTable,
    load_table,
    save_table,
)

__all__ = [
    "IOMetrics",
    "encode_rowkey",
    "decode_rowkey",
    "encode_string_rowkey",
    "decode_string_rowkey",
    "BloomFilter",
    "MemTable",
    "SSTable",
    "LSMStore",
    "Region",
    "RowFilter",
    "AcceptAllFilter",
    "PredicateFilter",
    "KVTable",
    "ScanRange",
    "WriteAheadLog",
    "ALL_CRASH_SITES",
    "FaultInjector",
    "FaultSchedule",
    "SimulatedCrash",
    "ClusterModel",
    "DurableKVTable",
    "load_table",
    "save_table",
]
