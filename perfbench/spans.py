"""Benchmark-side tracing: spans recorded around calls into each layer's
public functions, and the self-time arithmetic over them.

The program is measured from outside.  :class:`SpanRecorder` replaces
the public functions listed in :data:`TARGETS` with thin wrappers for
the duration of a traced run and restores them afterwards; nothing in
``src/repro`` is modified and ``repro.obs`` stays off.  A span is
(name, start, end, parent, operation id).  A layer's self time is the
sum, over its spans, of each span's duration minus the part covered by
its direct children.  Layers are the modules under ``src/repro``; a
span name's first dotted component is its layer.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

#: (module, owner attribute or None for a module-level function,
#: function name, span name).  ``bench.op`` (the harness layer) is the
#: root span the workload opens around each operation it times.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.engine.service", "SearchService", "search", "engine.search"),
    ("repro.engine.service", "SearchService", "index", "engine.index"),
    ("repro.engine.service", "SearchService", "add_peers", "engine.add_peers"),
    ("repro.engine.service", "SearchService", "save", "store.save"),
    ("repro.engine.service", "SearchService", "load", "store.load"),
    ("repro.retrieval.query", "QueryProcessor", "process", "text.process"),
    ("repro.retrieval.hdk_engine", "HDKRetrievalEngine", "search", "retrieval.search"),
    ("repro.retrieval.ranking", "DistributedRanker", "rank", "retrieval.rank"),
    ("repro.index.global_index", "GlobalKeyIndex", "lookup", "index.lookup"),
    ("repro.index.global_index", "GlobalKeyIndex", "apply_staged", "index.apply"),
    ("repro.store.spill", "SpillingGlobalKeyIndex", "apply_staged", "index.apply"),
    ("repro.net.chord", "ChordOverlay", "route_hops", "net.route"),
    ("repro.net.pgrid", "PGridOverlay", "route_hops", "net.route"),
    ("repro.net.chord", "ChordOverlay", "responsible_peer", "net.owner"),
    ("repro.net.pgrid", "PGridOverlay", "responsible_peer", "net.owner"),
    ("repro.net.accounting", "TrafficAccounting", "record", "net.accounting"),
    ("repro.net.network", "P2PNetwork", "lookup", "net.lookup"),
    ("repro.net.network", "P2PNetwork", "send_insert", "net.insert"),
    ("repro.overlay.routing", "HierarchicalRouter", "route_lookup", "overlay.route_lookup"),
    ("repro.hdk.indexer", "PeerIndexer", "extract_round", "hdk.extract"),
    ("repro.hdk.indexer", "PeerIndexer", "extract_statistics", "hdk.extract"),
    ("repro.hdk.indexer", "PeerIndexer", "stage_round", "indexing.stage"),
    ("repro.hdk.indexer", "PeerIndexer", "apply_round", "indexing.apply"),
    ("repro.hdk.indexer", None, "run_expansion_cascade", "indexing.cascade"),
    ("repro.indexing.pipeline", None, "run_expansion_cascade", "indexing.cascade"),
    ("repro.indexing.pipeline", "IndexingPipeline", "build", "indexing.pipeline"),
    ("repro.indexing.pipeline", "IndexingPipeline", "join", "indexing.pipeline"),
    ("repro.store.store", "SegmentStore", "put", "store.put"),
    ("repro.store.store", "SegmentStore", "get_postings", "store.get"),
)

#: The layers a span can belong to, in report order.
LAYERS = (
    "engine", "text", "retrieval", "index", "net", "overlay",
    "hdk", "indexing", "store", "serving", "bench",
)

#: Spans whose integer return value is summed (route hops per call).
SUMMED_RESULTS = frozenset({"net.route"})

ROOT = "bench.op"


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


@dataclass
class SpanTotals:
    """Per-span-name aggregates: calls, total and self seconds."""

    calls: dict[str, int] = field(default_factory=dict)
    total_s: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[layer_of(name)] += seconds
        return out


def self_times(
    spans: Iterable[tuple[str, float, float, int, int]]
) -> SpanTotals:
    """Aggregate ``(name, start, end, parent_index, op)`` spans by name.

    ``parent_index`` is the list position of the enclosing span, or -1
    for a root.  Each span's self time is its duration minus the
    summed durations of its direct children (children of children are
    already inside those), so the self times of a tree add up to its
    root's duration.  Spans recorded outside any operation (``op`` <
    0) are left out of the totals.
    """
    spans = list(spans)
    child_s = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals = SpanTotals()
    for index, (name, start, end, _parent, op) in enumerate(spans):
        if op < 0:
            continue
        duration = end - start
        totals.calls[name] = totals.calls.get(name, 0) + 1
        totals.total_s[name] = totals.total_s.get(name, 0.0) + duration
        totals.self_s[name] = (
            totals.self_s.get(name, 0.0) + duration - child_s[index]
        )
    return totals


class SpanRecorder:
    """Records spans from wrappers installed around :data:`TARGETS`.

    Only calls on the thread that created the recorder are recorded
    (the workloads drive the program from one thread; background
    maintenance threads pass through untraced).  Spans are kept in
    arrays in memory and written out by :meth:`dump`.
    """

    def __init__(self) -> None:
        self._thread = threading.get_ident()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = [-1]
        #: Id of the operation in progress (-1 between operations).
        self._op_id = -1
        self._ops_started = 0
        self.result_sums: dict[str, int] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, span_name: str) -> int:
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self._names)
            self._names.append(span_name)
        return self._name_ids[span_name]

    def _wrap(self, fn: Callable, span_name: str) -> Callable:
        name_id = self._name_id(span_name)
        thread = self._thread
        summed = span_name in SUMMED_RESULTS
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack = self.parent, self.op, self._stack
        perf_counter, get_ident = time.perf_counter, threading.get_ident
        sums = self.result_sums

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != thread:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self._op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if summed and self._op_id >= 0:
                sums[span_name] = sums.get(span_name, 0) + result
            return result

        return wrapper

    def operation(self) -> "_Operation":
        """Context manager opening one ``bench.op`` root span under a
        fresh operation id."""
        return _Operation(self)

    def install(self) -> None:
        """Replace every target with its recording wrapper."""
        for module_name, owner_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(raw.__func__, span_name))
            else:
                wrapped = self._wrap(raw, span_name)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def spans(self) -> Iterable[tuple[str, float, float, int, int]]:
        names = self._names
        return (
            (names[n], s, e, p, o)
            for n, s, e, p, o in zip(
                self.name, self.start, self.end, self.parent, self.op
            )
        )

    def totals(self) -> SpanTotals:
        return self_times(self.spans())

    def dump(self, path: Path) -> None:
        """Write every span as a tab-separated line: id, parent, op,
        name, start_ns, end_ns (times relative to the first span)."""
        origin = self.start[0] if len(self.start) else 0.0
        names = self._names
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for index, (n, s, e, p, o) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.op)
            ):
                out.write(
                    f"{index}\t{p}\t{o}\t{names[n]}\t"
                    f"{round((s - origin) * 1e9)}\t{round((e - origin) * 1e9)}\n"
                )


class _Operation:
    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder
        self._root_id = recorder._name_id(ROOT)

    def __enter__(self) -> None:
        rec = self._recorder
        rec._op_id = rec._ops_started
        rec._ops_started += 1
        self._index = len(rec.start)
        rec.name.append(self._root_id)
        rec.parent.append(rec._stack[-1])
        rec.op.append(rec._op_id)
        rec.end.append(0.0)
        rec._stack.append(self._index)
        rec.start.append(time.perf_counter())

    def __exit__(self, *exc_info: object) -> None:
        rec = self._recorder
        rec.end[self._index] = time.perf_counter()
        rec._stack.pop()
        rec._op_id = -1
