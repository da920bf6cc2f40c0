"""Discrete-event scheduler.

The scheduler is a priority queue of ``(time, sequence, callback)``
entries.  Ties on time are broken by insertion order (the sequence
number), which makes every simulation fully deterministic: the same
inputs always produce the same interleavings, aborts, and latencies.

The scheduler is deliberately minimal: components (executors, workers,
transports) express their behaviour as callbacks that schedule further
callbacks.  Generators/coroutines for transaction logic are layered on
top by :mod:`repro.runtime.executor` — the scheduler itself knows
nothing about transactions.

It is the only execution model: every executor, durability flusher,
replica, telemetry collector and the serving pump drive themselves
through one :class:`SimScheduler`, in virtual microseconds.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock


class Event:
    """A scheduled callback; cancellable."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_scheduler")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: tuple,
                 scheduler: "SimScheduler | None" = None) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            # Compact the dead heap entry: the tombstone stays queued
            # until popped, but must not pin the callback's closure or
            # arguments (root transactions, sessions, ...) in memory.
            self.fn = None
            self.args = ()
            if self._scheduler is not None:
                self._scheduler._on_cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time:.3f}, seq={self.seq}, fn={name})"


class SimScheduler:
    """The event loop driving a simulation run."""

    __slots__ = ("clock", "_queue", "_seq", "_dispatched", "_running",
                 "_live")

    def __init__(self) -> None:
        self.clock = VirtualClock()
        #: Heap of ``(time, seq, event)`` tuples: seq is unique, so
        #: comparisons resolve on the first two fields at C level and
        #: never reach the event object.
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._dispatched = 0
        self._running = False
        #: Live (non-cancelled, not-yet-dispatched) events; kept in
        #: sync on push/pop/cancel so :meth:`pending` is O(1).
        self._live = 0

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self.clock.now

    @property
    def events_dispatched(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._dispatched

    def at(self, timestamp: float, fn: Callable[..., Any],
           *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        now = self.clock.now
        if timestamp < now:
            if timestamp < now - 1e-9:
                raise SimulationError(
                    f"cannot schedule in the past: now={now}, "
                    f"requested={timestamp}"
                )
            timestamp = now
        event = Event(timestamp, self._seq, fn, args, scheduler=self)
        self._seq += 1
        heappush(self._queue, (timestamp, event.seq, event))
        self._live += 1
        return event

    def _on_cancel(self, event: Event) -> None:
        self._live -= 1

    def after(self, delay: float, fn: Callable[..., Any],
              *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(self.clock.now + delay, fn, *args)

    def soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time (after this event)."""
        return self.at(self.clock.now, fn, *args)

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        """Dispatch events until the queue drains or a bound is reached.

        Args:
            until: stop once the next event is strictly later than this
                virtual time (the clock is left at ``until``).  Events
                stamped exactly *at* ``until`` — including timestamps
                within the scheduler's 1e-9 float tolerance, e.g. an
                ``after(0.1 + 0.2)`` event against ``until=0.3`` — run
                before the call returns, so "ran to ``until``" means
                every event due by then was dispatched.
            max_events: safety valve against runaway simulations.
        """
        if self._running:
            raise SimulationError("scheduler is not re-entrant")
        self._running = True
        try:
            dispatched = 0
            queue = self._queue
            clock = self.clock
            while queue:
                time, __, event = queue[0]
                if event.cancelled:
                    # Already uncounted at cancel(); just drop it.
                    heappop(queue)
                    continue
                # The 1e-9 slack matches at()'s past-scheduling
                # tolerance: an event whose timestamp drifted a float
                # ulp past `until` is still "due at until".
                if until is not None and time > until + 1e-9:
                    break
                heappop(queue)
                self._live -= 1
                # A cancel() arriving after dispatch must not touch the
                # live counter again.
                event._scheduler = None
                if time > clock.now:
                    clock.now = time
                event.fn(*event.args)
                self._dispatched += 1
                dispatched += 1
                if max_events is not None and dispatched >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "possible livelock in the simulation"
                    )
            if until is not None and clock.now < until:
                clock.advance_to(until)
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): a counter maintained on push/pop/cancel, not a scan of
        the heap (cancelled entries stay queued until popped, so a
        scan would also walk dead events).
        """
        return self._live

    def busy(self, micros: float, fn: Callable[..., Any],
             *args: Any) -> Event:
        """Model ``micros`` of executor CPU occupancy, then continue
        with ``fn(*args)``: a virtual sleep."""
        return self.at(self.clock.now + micros, fn, *args)
