"""Outside-in span recording for the traced run.

The program is not edited: the benchmark rebinds the public boundaries
of the *live* objects (``engine.threshold_search``, ``pruner.prune``,
``store.executor.execute`` ...) to wrappers that record one span per
call — name, start, end, parent — into flat arrays kept in memory and
summarised when the run ends.  A span's name is ``<layer>.<call>``;
the layer is the ``repro`` module the boundary belongs to.

Three things keep attribution honest and the instrument cheap:

* ``KVTable.scan`` is a generator, so wrapping the call would time
  nothing.  :meth:`SpanRecorder.wrap_scan` times every ``__next__``
  instead; the row filter (decode + local filter) runs inside it and
  shows up as child spans.
* Callbacks handed *into* a layer (the executor's per-range ``fn`` and
  ``on_range_rows``) run the caller's code.  They are wrapped on the
  way in and charged to the caller's layer, not the executor's.
* A call that stays inside the layer already on top of the stack
  (``scan_ranges`` -> ``execute`` -> ``scan_chunk``) records nothing:
  its time is that layer's self time either way.

Self time of a span = its duration minus its children's.  Because the
arrays are in start order, the op (root span) a span belongs to is the
running count of roots before it.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np


class SpanRecorder:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.layers: List[str] = []
        #: name id -> layer id
        self._layer_of: List[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: open spans (indices into the arrays); -1 is "no span"
        self._stack: List[int] = [-1]
        #: layer id of each open span, parallel to ``_stack``
        self._layer_stack: List[int] = [-1]
        #: table scans started / scans that touched no row
        self.seeks = 0
        self.empty_seeks = 0

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            layer = name.split(".", 1)[0]
            if layer not in self.layers:
                self.layers.append(layer)
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self._layer_of.append(self.layers.index(layer))
        return nid

    def _hot(self):
        """The bound methods the wrappers' inlined enter/exit use."""
        return (
            self.name.append,
            self.parent.append,
            self.start.append,
            self.end.append,
            self.end,
            self._stack,
            self._layer_stack,
        )

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself."""
        nid = self._name_id(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self._layer_stack.append(self._layer_of[nid])
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()
            self._layer_stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recorded as span ``name`` (the hot-path wrapper)."""
        nid = self._name_id(name)
        layer = self._layer_of[nid]
        names, parents, starts, ends_append, ends, stack, layers = self._hot()
        clock = perf_counter

        def wrapper(*args, **kwargs):
            if layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(ends)
            names(nid)
            parents(stack[-1])
            ends_append(0.0)
            stack.append(idx)
            layers.append(layer)
            starts(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                layers.pop()

        return wrapper

    def wrap_with_callback(
        self, fn: Callable, name: str, position: int, keyword: str
    ) -> Callable:
        """Like :meth:`wrap`, and the callback ``fn`` receives (at
        ``position`` or as ``keyword``) is charged to the calling layer
        as ``<caller>.callback``."""
        layer = self._layer_of[self._name_id(name)]
        layers = self._layer_stack
        recorded = self.wrap(fn, name)

        def wrapper(*args, **kwargs):
            caller = layers[-1]
            if caller >= 0 and caller != layer:
                label = f"{self.layers[caller]}.callback"
                if kwargs.get(keyword) is not None:
                    kwargs[keyword] = self.wrap(kwargs[keyword], label)
                elif len(args) > position and args[position] is not None:
                    args = list(args)
                    args[position] = self.wrap(args[position], label)
            return recorded(*args, **kwargs)

        return wrapper

    def wrap_scan(self, table, name: str = "kvstore.scan") -> Callable:
        """``table.scan`` with every ``__next__`` of its generator
        timed, plus the seek / empty-seek tally.

        The first step runs when the wrapper is called, not when the
        result is first iterated: nine scans in ten touch no row, and
        answering those with ``()`` spares the traced run a generator
        per empty range.  Every caller iterates at once, so nothing
        observable moves.
        """
        scan = table.scan
        # One thread, no worker sinks: the table-wide counters.
        metrics = table.metrics
        nid = self._name_id(name)
        layer = self._layer_of[nid]
        names, parents, starts, ends_append, ends, stack, layers = self._hot()
        clock = perf_counter

        def timed_step(step):
            idx = len(ends)
            names(nid)
            parents(stack[-1])
            ends_append(0.0)
            stack.append(idx)
            layers.append(layer)
            starts(clock())
            try:
                return step()
            finally:
                ends[idx] = clock()
                stack.pop()
                layers.pop()

        def rest(first, step):
            yield first
            while True:
                try:
                    row = timed_step(step)
                except StopIteration:
                    return
                yield row

        def timed_scan(start=None, stop=None, row_filter=None):
            step = scan(start, stop, row_filter).__next__
            self.seeks += 1
            rows_before = metrics.rows_scanned
            try:
                first = timed_step(step)
            except StopIteration:
                if metrics.rows_scanned == rows_before:
                    self.empty_seeks += 1
                return ()
            return rest(first, step)

        return timed_scan

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Self seconds and call counts per span name, and the totals
        the reconciliation needs."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        duration = end - start
        children = np.zeros(n)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        self_time = duration - children
        names = len(self.names)
        self_s = np.bincount(name, weights=self_time, minlength=names)
        calls = np.bincount(name, minlength=names)
        return {
            "self_s": dict(zip(self.names, self_s.tolist())),
            "calls": dict(zip(self.names, calls.tolist())),
            "total_self_s": float(self_time.sum()),
            "roots": int((~nested).sum()),
            "spans": n,
        }

    def dump(self, path: str) -> None:
        """Raw spans as JSON: ``[name id, start, end, parent, op]``."""
        n = len(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        op = np.cumsum(parent < 0) - 1
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent", "op"],
                    "spans": [
                        [self.name[i], self.start[i], self.end[i],
                         self.parent[i], int(op[i])]
                        for i in range(n)
                    ],
                },
                fh,
            )


def by_layer(self_s: Dict[str, float]) -> Dict[str, float]:
    """Fold per-name self seconds into per-layer self seconds."""
    out: Dict[str, float] = {}
    for name, seconds in self_s.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


# ----------------------------------------------------------------------
# Rebinding the program's public boundaries
# ----------------------------------------------------------------------
def instrument_process(rec: SpanRecorder) -> None:
    """Boundaries that are classes or module globals: bound once per
    process, they cover every engine created afterwards."""
    import repro.core.engine as engine_module
    import repro.core.storage as storage_module
    from repro.core.local_filter import LocalFilter

    LocalFilter.passes = rec.wrap(LocalFilter.passes, "local_filter.passes")
    engine_module.topk_search = rec.wrap(
        engine_module.topk_search, "topk.search"
    )
    # The write path's feature / codec calls inside ``store.put``.
    storage_module.extract_dp_features = rec.wrap(
        storage_module.extract_dp_features, "features.extract"
    )
    storage_module.encode_row = rec.wrap(
        storage_module.encode_row, "codec.encode"
    )


def instrument_engine(rec: SpanRecorder, engine) -> None:
    """Boundaries of one live engine (instance attributes shadow the
    methods, so the engine's own internal calls go through them too)."""
    store = engine.store
    executor = store.executor
    engine.threshold_search = rec.wrap(
        engine.threshold_search, "engine.threshold_search"
    )
    engine.topk_search = rec.wrap(engine.topk_search, "engine.topk_search")
    engine.add_all = rec.wrap(engine.add_all, "storage.put_all")
    engine.pruner.prune = rec.wrap(engine.pruner.prune, "pruning.prune")
    store.scan_ranges_for = rec.wrap(
        store.scan_ranges_for, "storage.scan_ranges_for"
    )
    executor.execute = rec.wrap_with_callback(
        executor.execute, "executor.execute", 1, "fn"
    )
    executor.scan_ranges = rec.wrap_with_callback(
        executor.scan_ranges, "executor.scan_ranges", 3, "on_range_rows"
    )
    executor.scan_chunk = rec.wrap(executor.scan_chunk, "executor.scan_chunk")
    store.table.scan = rec.wrap_scan(store.table)
    store.table.put = rec.wrap(store.table.put, "kvstore.put")
    store.record_decoder = rec.wrap(store.record_decoder, "codec.decode")
    store.index.index = rec.wrap(store.index.index, "index.encode")
    engine.measure.distance_within = rec.wrap(
        engine.measure.distance_within, "measures.distance_within"
    )
