"""Outside-in per-layer tracing: wrap public calls, keep spans, sum self time.

:func:`install` replaces the public methods and functions listed in
:data:`LAYERS` with thin wrappers, *before* any database is built, so
bound methods that objects cache at construction are wrapped too.  The
program itself carries no tracing code: every span starts and ends in
this file, around a call into one ``src/repro/<package>``.

Each wrapper keeps, per thread, a stack of open spans.  When a span
closes, its duration is added to its parent's child time, and its self
time -- duration minus the time its children covered -- is added to its
own counters.  A call made from inside a span of the same layer is
internal to that layer and opens no span, except inside a *loop* span
(``SimScheduler.run``, ``certify_all``), whose callbacks belong to
other code.  From :meth:`Tracer.keep_spans` on (the start of the
drive), the first :data:`SPAN_CAP` spans are also kept in memory as
(name, start, end, parent, wire key) rows and written out when the run
ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: (layer, "module:Class" or "module", attribute names, kind).
#: ``span`` times the call; ``count`` only counts it (for calls made so
#: often that timing them would dwarf the work, such as the conflict
#: test in the quadratic conflict-edge pass); ``loop`` is a span whose
#: nested same-layer calls still open spans of their own.
LAYERS: list[tuple[str, str, tuple[str, ...], str]] = [
    ("sim", "repro.sim.scheduler:SimScheduler", ("run",), "loop"),
    ("sim", "repro.sim.scheduler:SimScheduler",
     ("at", "after", "soon", "busy", "post"), "span"),
    ("runtime", "repro.runtime.executor:TransactionExecutor",
     ("submit",), "span"),
    ("core", "repro.core.database:ReactorDatabase", ("submit",), "span"),
    ("core", "repro.core.context:ReactorContext",
     ("lookup", "multi_lookup", "select", "run_query", "insert",
      "update", "delete", "call", "get"), "span"),
    ("concurrency", "repro.concurrency.base:CCSession",
     ("read", "multi_read", "insert", "update", "delete", "scan"),
     "span"),
    ("concurrency", "repro.concurrency.base:ConcurrencyControl",
     ("validate", "install", "abort"), "span"),
    ("storage", "repro.storage.store:VersionedStore",
     ("get", "peek", "record_map", "put"), "span"),
    ("relational", "repro.relational.table:Table",
     ("get_record", "peek_record", "records_for_pks", "install_insert",
      "install_update", "install_delete", "ensure_placeholder",
      "discard_placeholder", "load_row"), "span"),
    ("relational", "repro.relational.index:HashIndex",
     ("lookup", "insert", "remove"), "span"),
    ("relational", "repro.relational.index:OrderedIndex",
     ("lookup", "insert", "remove", "range"), "span"),
    ("relational", "repro.relational.query:Query", ("run",), "span"),
    ("durability", "repro.durability.wal:RedoLog", ("append",), "span"),
    ("durability", "repro.durability.group_commit:LogFlusher",
     ("on_append", "ack_future"), "span"),
    ("replication", "repro.replication.manager:ReplicationManager",
     ("on_commit_installed",), "span"),
    ("telemetry", "repro.telemetry.facade:Telemetry",
     ("trace_root", "note_root_done", "histogram"), "span"),
    ("serving", "repro.serving.protocol",
     ("encode_frame", "validate_request"), "span"),
    ("serving", "repro.serving.protocol:FrameDecoder", ("feed",), "span"),
    ("client", "repro.client.tcp:TcpClient", ("submit",), "span"),
    ("formal", "repro.formal.audit", ("certify_all",), "loop"),
    ("formal", "repro.formal.history:ReactorHistory",
     ("subtxn_conflict_edges",), "span"),
    ("formal", "repro.formal.serializability", ("has_cycle",), "span"),
    ("formal", "repro.formal.audit:HistoryRecorder", ("record_op",),
     "span"),
    ("formal", "repro.formal.ops:Op", ("conflicts_with",), "count"),
    ("bench", "repro.bench.harness", ("run_measurement",), "loop"),
    ("bench", "repro.workloads.smallbank:SmallbankWorkload",
     ("next_txn",), "span"),
]

#: Span rows kept for the span file; later spans only count.
SPAN_CAP = 50_000

#: Arguments that carry a wire request: the message dict's
#: ``(session, id)`` becomes the span's key.
_WIRE_KEYED = {"serving.encode_frame", "serving.validate_request"}


class Tracer:
    """Per-name call counts, self and total time, and the span rows."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self._index: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_keys: dict[int, tuple] = {}
        #: Span rows are kept only after :meth:`keep_spans`, so the
        #: capped span file shows the drive rather than the set-up.
        self._keeping = [False]
        #: Named ledger windows, each the sum of the intervals that
        #: :meth:`window` measured under its name.
        self.windows: dict[str, dict[str, dict[str, float]]] = {}

    # -- registration ----------------------------------------------------

    def slot(self, layer: str, name: str) -> int:
        full = f"{layer}.{name}"
        index = self._index.get(full)
        if index is None:
            index = len(self.names)
            self._index[full] = index
            self.names.append(full)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return index

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, layer: str, name: str, fn: Callable,
             kind: str = "span") -> Callable:
        """A traced stand-in for ``fn`` (see the module docstring)."""
        index = self.slot(layer, name)
        calls = self.calls
        if kind == "count":
            # Only for calls one thread makes in a hot loop (the conflict
            # test of certification): a lock here would triple its cost.
            def counted(*args, **kwargs):
                calls[index] += 1
                return fn(*args, **kwargs)
            return counted

        # The served generator calls the client from two threads; the
        # shared counters and span rows change only under this lock.
        lock = self._lock

        # An open span of this layer makes the call internal, unless
        # that span is a loop whose callbacks belong to other code.
        opens_loop = kind == "loop"
        self_s, total_s = self.self_s, self.total_s
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        keys = self.span_keys
        keeping = self._keeping
        keyed = f"{layer}.{name}" in _WIRE_KEYED
        stack_of = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                top = stack[-1]
                if top[2] == layer and not top[3]:
                    return fn(*args, **kwargs)
                parent = top[1]
            else:
                parent = -1
            span = -1
            if keeping[0]:
                with lock:
                    span = len(names)
                    if span >= SPAN_CAP:
                        span = -1
                        keeping[0] = False
                    else:
                        names.append(index)
                        starts.append(0.0)
                        ends.append(0.0)
                        parents.append(parent)
                        if keyed and args and isinstance(args[0], dict):
                            keys[span] = (args[0].get("session"),
                                          args[0].get("id"))
            entry = [0.0, span, layer, opens_loop]
            stack.append(entry)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                with lock:
                    calls[index] += 1
                    total_s[index] += duration
                    self_s[index] += duration - entry[0]
                    if span >= 0:
                        starts[span] = start
                        ends[span] = end

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry of :data:`LAYERS`; call once per process,
        before the database is built."""
        for layer, target, attrs, kind in LAYERS:
            module_name, __, class_name = target.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                self._wrap_class(layer, getattr(module, class_name),
                                 attrs, kind)
            else:
                for attr in attrs:
                    self._wrap_function(layer, module, attr, kind)

    def _wrap_class(self, layer: str, cls: type, attrs: tuple[str, ...],
                    kind: str) -> None:
        # Subclasses that override a method get their own wrapper; a
        # super() call into the base lands in the same layer and opens
        # no second span.
        classes = [cls]
        for klass in classes:
            classes.extend(klass.__subclasses__())
        for klass in classes:
            for attr in attrs:
                original = klass.__dict__.get(attr)
                if original is None or not callable(original):
                    continue
                name = f"{cls.__name__}.{attr}"
                setattr(klass, attr, self.wrap(layer, name, original,
                                               kind))

    def _wrap_function(self, layer: str, module: Any, attr: str,
                       kind: str) -> None:
        original = getattr(module, attr)
        traced = self.wrap(layer, attr, original, kind)
        # ``from module import fn`` copies the reference: replace it in
        # every loaded module of the program, not only where defined.
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "") or ""
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, traced)

    def keep_spans(self) -> None:
        """Keep span rows from now on, up to :data:`SPAN_CAP`."""
        self._keeping[0] = True

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per wrapped name: calls, self seconds, total seconds."""
        with self._lock:
            return {name: {"calls": self.calls[i],
                           "self_s": self.self_s[i],
                           "total_s": self.total_s[i]}
                    for i, name in enumerate(self.names)}

    @contextmanager
    def window(self, name: str) -> Iterator[None]:
        """Add what the ``with`` body calls to the window ``name``."""
        before = self.snapshot()
        try:
            yield
        finally:
            self.add_since(name, before)

    def add_since(self, name: str, before: dict) -> None:
        """Add everything called since ``before`` (a :meth:`snapshot`)
        to the window ``name``."""
        into = self.windows.setdefault(name, {})
        for key, row in diff(before, self.snapshot()).items():
            bucket = into.setdefault(
                key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for field, value in row.items():
                bucket[field] += value

    def write_spans(self, path: str) -> int:
        """Write the kept span rows as JSON; returns the row count."""
        rows = []
        for span in range(len(self.span_name)):
            rows.append([self.names[self.span_name[span]],
                         round(self.span_start[span], 9),
                         round(self.span_end[span], 9),
                         self.span_parent[span],
                         self.span_keys.get(span)])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["name", "start_s", "end_s", "parent",
                                   "wire_key"], "spans": rows}, handle)
        return len(rows)


def diff(before: dict[str, dict[str, float]],
         after: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """``after - before`` per name (a window of a running tracer)."""
    out = {}
    for name, row in after.items():
        base = before.get(name, {"calls": 0, "self_s": 0.0,
                                 "total_s": 0.0})
        out[name] = {key: row[key] - base[key] for key in row}
    return out


@contextmanager
def no_window(name: str) -> Iterator[None]:
    """Stand-in for :meth:`Tracer.window` in an untraced pass."""
    yield
