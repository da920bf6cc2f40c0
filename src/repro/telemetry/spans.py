"""The span tracer: virtual-clock spans over root transactions.

A sampled root transaction opens a :class:`TraceHandle`; the runtime
marks child spans on it (scheduling wait, blocks, sub-calls, commit,
CC/2PC phases, ack waits, migration parking) and the handle emits
finished :class:`Span` records into the database's single
:class:`Tracer`.  System components (log flushers, replication,
migration) emit spans on their own tracks when system tracing is on.

Everything is deterministic: span ids are a per-tracer sequence,
timestamps are the virtual clock, and no telemetry code ever schedules
an event or consumes randomness — a given seed yields a byte-identical
exported trace.

Spans an aborted path never closes are simply not emitted (the trace
stays a well-formed tree); a trace is *finished* exactly once, at the
root's completion report.
"""

from __future__ import annotations

from typing import Any

#: Track names the exporter maps to Chrome trace-event pids.
TRACK_TXN = "txn"
TRACK_LOG = "log"
TRACK_REPLICATION = "replication"
TRACK_MIGRATION = "migration"
TRACK_SERVING = "serving"


class Span:
    """One finished span, ready for export."""

    __slots__ = ("name", "track", "tid", "start", "end", "span_id",
                 "parent_id", "args")

    def __init__(self, name: str, track: str, tid: int, start: float,
                 end: float, span_id: int, parent_id: int,
                 args: dict[str, Any] | None) -> None:
        self.name = name
        self.track = track
        self.tid = tid
        self.start = start
        self.end = end
        self.span_id = span_id
        self.parent_id = parent_id
        self.args = args


class Tracer:
    """The database-wide sink of finished spans."""

    __slots__ = ("spans", "system", "max_spans", "dropped", "_next_id")

    def __init__(self, system: bool = False,
                 max_spans: int = 1_000_000) -> None:
        self.spans: list[Span] = []
        #: Record system-track spans (log/replication/migration)?
        self.system = system
        #: Bound on retained spans: beyond it spans are counted as
        #: dropped instead of growing memory without limit.
        self.max_spans = max_spans
        self.dropped = 0
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def emit(self, name: str, track: str, tid: int, start: float,
             end: float, span_id: int, parent_id: int = 0,
             args: dict[str, Any] | None = None) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(Span(name, track, tid, start, end, span_id,
                               parent_id, args))

    def system_span(self, name: str, track: str, tid: int,
                    start: float, end: float,
                    args: dict[str, Any] | None = None) -> None:
        """A span on a system track; no-op unless system tracing is
        on (callers guard on ``tracer.system`` for zero-cost skips)."""
        if self.system:
            self.emit(name, track, tid, start, end, self.new_id(),
                      0, args)


class TraceHandle:
    """One sampled root transaction's trace under construction."""

    __slots__ = ("tracer", "txn_id", "root_id", "root_start",
                 "root_args", "_open", "finished")

    def __init__(self, tracer: Tracer, txn_id: int, start: float,
                 args: dict[str, Any]) -> None:
        self.tracer = tracer
        self.txn_id = txn_id
        self.root_id = tracer.new_id()
        self.root_start = start
        self.root_args = args
        #: open child spans: key -> (span_id, name, start, args,
        #: parent span id).
        self._open: dict[Any, tuple[int, str, float,
                                    dict[str, Any] | None, int]] = {}
        self.finished = False

    # -- children -------------------------------------------------------

    def _parent_id(self, parent_key: Any) -> int:
        """The open span under ``parent_key``, else the root span."""
        if parent_key is not None:
            entry = self._open.get(parent_key)
            if entry is not None:
                return entry[0]
        return self.root_id

    def open_child(self, key: Any, name: str, start: float,
                   args: dict[str, Any] | None = None,
                   parent_key: Any = None) -> int:
        """Start a span under the open span ``parent_key`` (default:
        the root); ``key`` identifies it for :meth:`close_child`
        (subtxn id, frame, or a string for singleton phases).  Returns
        the span id (usable as a parent for nested spans)."""
        span_id = self.tracer.new_id()
        self._open[key] = (span_id, name, start, args,
                           self._parent_id(parent_key))
        return span_id

    def close_child(self, key: Any, end: float,
                    extra: dict[str, Any] | None = None) -> None:
        entry = self._open.pop(key, None)
        if entry is None:
            return
        span_id, name, start, args, parent_id = entry
        if extra:
            args = {**(args or {}), **extra}
        self.tracer.emit(name, TRACK_TXN, self.txn_id, start, end,
                         span_id, parent_id, args)

    def span(self, name: str, start: float, end: float,
             args: dict[str, Any] | None = None,
             parent_key: Any = None) -> None:
        """A complete child span whose start and end are both known."""
        self.tracer.emit(name, TRACK_TXN, self.txn_id, start, end,
                         self.tracer.new_id(),
                         self._parent_id(parent_key), args)

    def instant(self, name: str, ts: float,
                args: dict[str, Any] | None = None,
                parent_key: Any = None) -> None:
        """A zero-duration marker (CC/2PC phase points)."""
        self.span(name, ts, ts, args, parent_key=parent_key)

    # -- completion -----------------------------------------------------

    def finish(self, end: float,
               extra: dict[str, Any] | None = None) -> None:
        """Emit the root span; open children are discarded (they never
        happened to completion on this trace)."""
        if self.finished:
            return
        self.finished = True
        self._open.clear()
        args = self.root_args
        if extra:
            args = {**args, **extra}
        self.tracer.emit("txn", TRACK_TXN, self.txn_id,
                         self.root_start, end, self.root_id, 0, args)


__all__ = ["Span", "Tracer", "TraceHandle", "TRACK_TXN", "TRACK_LOG",
           "TRACK_REPLICATION", "TRACK_MIGRATION", "TRACK_SERVING"]
