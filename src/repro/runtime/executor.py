"""Transaction executors: the compute resources of ReactDB.

A transaction executor (paper Section 3.1) abstracts one core pinned
thread pool with a request queue.  Requests are asynchronous procedure
calls — root transactions routed by the database's transaction router
and sub-transactions arriving from other executors.

The executor drives procedures as generator *tasks* over the
discrete-event scheduler:

* at most one task consumes CPU at any instant (the executor is pinned
  to one simulated hardware thread);
* a configurable multiprogramming level (MPL) bounds how many
  *non-blocked* tasks are admitted; a task that blocks on a remote
  future releases its slot and the executor cooperatively switches to
  the next ready task or admits a new request — exactly the paper's
  cooperative multitasking with thread handoff (Section 3.2.3);
* a call to a reactor served by this same executor is executed inline
  (synchronously), avoiding migration-of-control overhead; calls to
  reactors on other executors are dispatched with send cost ``Cs`` and
  their results consumed with receive cost ``Cr``.

Latency of root transactions is broken down into the paper's Figure 6
categories as charges and waits are attributed (see
:mod:`repro.runtime.transaction`).
"""

from __future__ import annotations

import inspect
from collections import deque
from typing import Any, Callable

from repro.concurrency.coordinator import TwoPhaseCommit
from repro.errors import (
    CCAbort,
    DangerousStructureAbort,
    ReactorError,
    SimulationError,
    TransactionAbort,
    UnknownReactorError,
    UserAbort,
)
from repro.runtime.effects import CallEffect, ChargeEffect, GetEffect
from repro.runtime.futures import SimFuture
from repro.runtime.transaction import RootTransaction

_NOTHING = object()

_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"

#: Lazily-cached :class:`repro.core.context.ReactorContext`.  The
#: import is deferred (core.context yields runtime effect objects, so a
#: module-scope import would be circular) but resolving it once instead
#: of per frame keeps ``_push_frame`` off the import machinery.
_ReactorContext: type | None = None


class Invocation:
    """A queued request: root transaction or sub-transaction call."""

    __slots__ = ("root", "reactor", "proc_name", "args", "kwargs",
                 "subtxn_id", "result_future", "on_root_done")

    def __init__(self, root: RootTransaction, reactor: Any,
                 proc_name: str, args: tuple, kwargs: dict,
                 subtxn_id: int = 0,
                 result_future: SimFuture | None = None,
                 on_root_done: Callable[..., None] | None = None) -> None:
        self.root = root
        self.reactor = reactor
        self.proc_name = proc_name
        self.args = args
        self.kwargs = kwargs
        self.subtxn_id = subtxn_id
        self.result_future = result_future
        self.on_root_done = on_root_done

    @property
    def is_root(self) -> bool:
        return self.subtxn_id == 0


class Frame:
    """One procedure activation on a reactor within a task."""

    __slots__ = ("gen", "reactor", "subtxn_id", "pending", "entered",
                 "inline_future")

    def __init__(self, gen: Any, reactor: Any, subtxn_id: int,
                 entered: bool) -> None:
        self.gen = gen
        self.reactor = reactor
        self.subtxn_id = subtxn_id
        self.pending: list[SimFuture] = []
        self.entered = entered
        #: For inline child frames: the future the parent received.
        self.inline_future: SimFuture | None = None


class Task:
    """An executing (sub-)transaction on one executor."""

    __slots__ = ("invocation", "root", "frames", "state", "executor",
                 "pending_charge", "blocked_on", "block_start",
                 "block_category", "wake_future")

    def __init__(self, invocation: Invocation, executor:
                 "TransactionExecutor") -> None:
        self.invocation = invocation
        self.root = invocation.root
        self.frames: list[Frame] = []
        self.state = _READY
        self.executor = executor
        #: Simulated CPU accrued by data operations since last flush.
        self.pending_charge = 0.0
        self.blocked_on: SimFuture | None = None
        self.block_start = 0.0
        self.block_category = "async_execution"
        self.wake_future: SimFuture | None = None

    @property
    def is_root(self) -> bool:
        return self.invocation.is_root


def _frame_body(proc: Callable, ctx: Any, args: tuple,
                kwargs: dict, frame: Frame):
    """Driver generator around a procedure.

    Forwards the procedure's effects and, when it finishes, implicitly
    synchronizes on every future it left outstanding: a transaction or
    sub-transaction completes only when all its nested sub-transactions
    complete (paper Section 2.2.3).
    """
    try:
        result = proc(ctx, *args, **kwargs)
        if inspect.isgenerator(result):
            result = yield from result
    except Exception:
        # Even on abort, outstanding sub-transactions must finish
        # before this frame completes — otherwise orphaned executions
        # would race the rollback.  Their own failures are subsumed by
        # the abort already in flight.
        for future in list(frame.pending):
            if not future.consumed:
                try:
                    yield GetEffect(future, implicit=True)
                except Exception:
                    pass
        raise
    for future in list(frame.pending):
        if not future.consumed:
            yield GetEffect(future, implicit=True)
    return result


class TransactionExecutor:
    """One simulated core's worth of transaction processing."""

    __slots__ = ("executor_id", "core_id", "container", "scheduler",
                 "costs", "mpl", "queue", "ready", "running",
                 "_dispatch_scheduled", "busy_time", "requests_served",
                 "_shadow_of", "_cid", "_future_cls")

    def __init__(self, executor_id: int, core_id: int, container: Any,
                 scheduler: Any, costs: Any, mpl: int = 1) -> None:
        if mpl < 1:
            raise SimulationError("MPL must be at least 1")
        self.executor_id = executor_id
        self.core_id = core_id
        self.container = container
        #: The execution backend (see :mod:`repro.runtime.backend`);
        #: the attribute keeps its historical name because the whole
        #: runtime schedules through it.
        self.scheduler = scheduler
        #: Backend-chosen future type (thread-safe under ``threads``).
        self._future_cls = getattr(scheduler, "future_class", None) \
            or SimFuture
        self._cid = container.container_id
        self.costs = costs
        self.mpl = mpl
        self.queue: deque[Invocation] = deque()
        self.ready: deque[Task] = deque()
        self.running: Task | None = None
        self._dispatch_scheduled = False
        #: Cumulative busy virtual time, for utilization reporting.
        self.busy_time = 0.0
        self.requests_served = 0
        #: Replica containers expose ``shadow`` (a class-level method);
        #: bound once so the call hot path skips a getattr per effect.
        self._shadow_of = getattr(container, "shadow", None)

    # ------------------------------------------------------------------
    # Request intake and dispatch
    # ------------------------------------------------------------------

    def submit(self, invocation: Invocation) -> None:
        """Enqueue a request (thread-safe by construction: the event
        loop is single-threaded)."""
        if self.container.failed and \
                invocation.result_future is not None:
            # Sub-call arriving at a crashed container: fail the
            # future so the caller aborts instead of waiting forever.
            invocation.result_future.fail(
                TransactionAbort(
                    f"container {self.container.container_id} failed"),
                self.scheduler.now)
            return
        self.queue.append(invocation)
        self._kick()

    def _kick(self) -> None:
        # post() targets this executor's container context: on the sim
        # backend that is soon(); on the threads backend it routes the
        # dispatch onto this container's worker thread even when the
        # kick came from another thread (cross-container submit).  The
        # _dispatch_scheduled flag is a best-effort dampener — a racy
        # double-post only runs _dispatch twice, which is idempotent.
        if self.running is None and not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.scheduler.post(self._cid, self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        if self.running is not None:
            return
        if self.ready:
            task = self.ready.popleft()
            self._resume_woken(task)
            return
        if self.queue and self._admitted_nonblocked() < self.mpl:
            invocation = self.queue.popleft()
            self._start_invocation(invocation)

    def _admitted_nonblocked(self) -> int:
        count = len(self.ready)
        if self.running is not None:
            count += 1
        return count

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------

    def _start_invocation(self, invocation: Invocation) -> None:
        if invocation.reactor.retired and \
                self._forward_stale(invocation):
            # The reactor migrated away while this request waited in a
            # queue the migration sweep did not cover; it was handed to
            # the successor's executor instead of running here.
            self._kick()
            return
        self.requests_served += 1
        root = invocation.root
        reactor = invocation.reactor
        task = Task(invocation, self)

        # Dynamic intra-transaction safety (Section 2.2.4): refuse a
        # sub-transaction when another sub-transaction of the same root
        # is active on this reactor.
        if not reactor.try_enter(root.txn_id, invocation.subtxn_id):
            abort = DangerousStructureAbort(
                f"sub-transaction {invocation.subtxn_id} of txn "
                f"{root.txn_id} raced another sub-transaction on "
                f"reactor {reactor.name!r}"
            )
            if invocation.result_future is not None:
                invocation.result_future.fail(abort, self.scheduler.now)
                self._kick()
                return
            raise abort  # a root invocation can never race itself

        self.running = task
        task.state = _RUNNING
        self._touch_reactor(task, reactor)
        self._push_frame(task, reactor, invocation.subtxn_id,
                         entered=True,
                         proc_name=invocation.proc_name,
                         args=invocation.args,
                         kwargs=invocation.kwargs)
        # Root admissions pay the executor wake-up (thread switch from
        # the request queue), part of the containerization overhead.
        if invocation.subtxn_id == 0:
            trace = root.trace
            if trace is not None:
                trace.close_child("sched", self.scheduler.now,
                                  {"core": self.core_id})
            self._busy(task, self.costs.executor_wake, "commit",
                       self._step, task, _NOTHING, None)
        else:
            self._step(task, _NOTHING, None)

    def _forward_stale(self, invocation: Invocation) -> bool:
        """Re-target an invocation whose reactor was retired by an
        online migration; returns ``True`` when it was re-submitted to
        another executor (and must not start here)."""
        reactor = invocation.reactor
        while reactor.retired and reactor.migrated_to is not None:
            reactor = reactor.migrated_to
        invocation.reactor = reactor
        database = self.container.database
        if reactor.migrating:
            # The successor is itself mid-migration (back-to-back):
            # the request belongs in that migration's parked queue.
            migration = database.migration
            if invocation.is_root:
                migration.park_root(reactor.name, invocation)
            else:
                migration.park_subcall(reactor.name, invocation)
            return True
        if invocation.is_root:
            target = database._route_root(reactor)
        else:
            target = self._sub_call_target(reactor)
        if target is not self:
            target.submit(invocation)
            return True
        return False

    def _push_frame(self, task: Task, reactor: Any, subtxn_id: int,
                    entered: bool, proc_name: str, args: tuple,
                    kwargs: dict) -> Frame:
        global _ReactorContext
        context_cls = _ReactorContext
        if context_cls is None:
            from repro.core.context import ReactorContext
            context_cls = _ReactorContext = ReactorContext

        proc = reactor.rtype.get_procedure(proc_name)
        frame = Frame(None, reactor, subtxn_id, entered)
        ctx = context_cls(reactor, task.root, task, self.costs)
        frame.gen = _frame_body(proc, ctx, args, kwargs, frame)
        task.frames.append(frame)
        task.pending_charge += self.costs.proc_base_cost
        return frame

    def _touch_reactor(self, task: Task, reactor: Any) -> None:
        """Cache-affinity bookkeeping: the first touch of a reactor in
        a transaction fixes the data-operation cost multiplier from
        the core's warmth (1.0 when fully warm, up to
        ``cold_access_factor`` when fully cold)."""
        root = task.root
        if reactor.name not in root.touched_reactors:
            warmth = reactor.touch(self.core_id)
            factor = 1.0 + (self.costs.cold_access_factor - 1.0) * \
                (1.0 - warmth)
            root.touched_reactors[reactor.name] = factor
            # Online migration drains on this set: the reactor cannot
            # be copied away while a root that touched it is in flight.
            reactor.inflight_roots.add(root.txn_id)
            root.reactor_refs.append(reactor)

    # ------------------------------------------------------------------
    # The trampoline
    # ------------------------------------------------------------------

    def _step(self, task: Task, send_value: Any,
              throw: BaseException | None) -> None:
        """Advance the top frame one effect; handle completion/abort."""
        gen = task.frames[-1].gen
        try:
            if throw is not None:
                effect = gen.throw(throw)
            elif send_value is _NOTHING:
                effect = next(gen)
            else:
                effect = gen.send(send_value)
        except StopIteration as stop:
            self._after_charge(task, self._frame_done, task, stop.value)
            return
        except SimulationError:
            raise  # a runtime bug, not an application condition
        except ReactorError as error:
            # Application-level failures (user aborts, missing records,
            # duplicate keys, unknown reactors...) abort the root
            # transaction; anything else is a bug and propagates.
            if isinstance(error, TransactionAbort):
                exc: TransactionAbort = error
            else:
                exc = UserAbort(f"{type(error).__name__}: {error}")
            self._after_charge(task, self._frame_aborted, task, exc)
            return
        self._after_charge(task, self._process_effect, task, effect)

    def _after_charge(self, task: Task, fn: Callable[..., None],
                      *args: Any) -> None:
        """Convert accrued data-operation cost into busy time first.

        Continuations are ``(fn, *args)`` pairs, never closures: the
        trampoline runs once per effect, and allocating a lambda per
        hop dominated its profile.
        """
        pending = task.pending_charge
        if pending > 0.0:
            task.pending_charge = 0.0
            self._busy(task, pending, "exec", fn, *args)
        else:
            fn(*args)

    def _busy(self, task: Task, micros: float, category: str,
              fn: Callable[..., None], *args: Any) -> None:
        """Occupy this executor's core for ``micros``, then continue
        with ``fn(*args)``."""
        self.busy_time += micros
        if task.invocation.subtxn_id == 0:
            task.root.charge(_BREAKDOWN[category], micros)
        if micros > 0.0:
            # Backend hook: a virtual sleep on sim (byte-identical to
            # the historical after()), an inline continuation on the
            # threads backend where real CPU work subsumes the charge.
            self.scheduler.busy(micros, fn, *args)
        else:
            fn(*args)

    # ------------------------------------------------------------------
    # Effect handlers
    # ------------------------------------------------------------------

    def _process_effect(self, task: Task, effect: Any) -> None:
        if task.invocation.subtxn_id == 0:
            task.root.effect_seq += 1
        # Calls and gets dominate the yielded-effect mix (data
        # operations never yield); test for them first.
        if isinstance(effect, CallEffect):
            self._handle_call(task, effect)
        elif isinstance(effect, GetEffect):
            self._handle_get(task, effect)
        elif isinstance(effect, ChargeEffect):
            self._busy(task, effect.micros, effect.category,
                       self._step, task, None, None)
        else:
            self._step(task, None, SimulationError(
                f"procedure yielded a non-effect: {effect!r}"))

    def _handle_call(self, task: Task, call: CallEffect) -> None:
        database = self.container.database
        try:
            reactor = database.reactor(call.reactor_name)
        except UnknownReactorError as exc:
            self._step(task, None, exc)
            return
        # On a *serving* replica container, calls to reactors of the
        # same primary container resolve to the local shadows (the
        # whole read-only transaction stays on the replica's cores).
        # Calls that would *leave* a serving replica are refused: the
        # replica's shadows are a consistent prefix of its own primary
        # only, so mixing them with another container's live primary
        # could read a torn cross-container state no validation
        # detects.  A *promoted* replica is a primary: it must resolve
        # through the database registry like any other container, or a
        # later migration off it would keep routing writes into the
        # abandoned local copy.
        shadow_of = self._shadow_of
        if shadow_of is not None and \
                getattr(self.container, "role", None) == "replica":
            shadow = shadow_of(call.reactor_name)
            if shadow is not None:
                reactor = shadow
            else:
                self._step(task, None, UserAbort(
                    f"replica-served read-only transaction cannot "
                    f"call reactor {call.reactor_name!r} outside its "
                    f"container"))
                return
        current = task.frames[-1].reactor
        root = task.root

        if reactor is current:
            # Self-call: executed synchronously, same logical thread of
            # control, no new sub-transaction identity (Section 2.2.4).
            self._run_inline(task, reactor, call,
                             subtxn_id=task.frames[-1].subtxn_id,
                             entered=False)
            return

        migration = database.migration
        if migration is not None and reactor.migrating and \
                root.txn_id not in reactor.inflight_roots:
            # The callee is mid-migration and this transaction holds no
            # stake in the source copy (a transaction that already
            # touched it keeps running there and drains).  Park the
            # sub-call: it replays on the destination container after
            # the routing flip, so the transaction spans the migration
            # and commits through 2PC like any cross-container one.
            subtxn_id = root.next_subtxn_id()
            future = self._future_cls(remote=True, subtxn_id=subtxn_id,
                                      target_reactor=reactor.name)
            future.birth_seq = root.effect_seq
            task.frames[-1].pending.append(future)
            root.remote_calls += 1
            invocation = Invocation(root, reactor, call.proc_name,
                                    call.args, call.kwargs,
                                    subtxn_id=subtxn_id,
                                    result_future=future)
            trace = root.trace
            if trace is not None:
                trace.open_child(subtxn_id, f"subcall:{reactor.name}",
                                 self.scheduler.now,
                                 {"proc": call.proc_name,
                                  "parked": True})
            migration.park_subcall(reactor.name, invocation)
            self._busy(task, self.costs.cs, "cs",
                       self._step, task, future, None)
            return

        target = self._sub_call_target(reactor)
        if target is self:
            subtxn_id = root.next_subtxn_id()
            if not reactor.try_enter(root.txn_id, subtxn_id):
                self._step(task, None, DangerousStructureAbort(
                    f"inline sub-transaction on reactor {reactor.name!r} "
                    f"raced txn {root.txn_id}"
                ))
                return
            self._run_inline(task, reactor, call, subtxn_id=subtxn_id,
                             entered=True)
            return

        # Remote dispatch: charge Cs, enqueue at the target executor,
        # hand the (pending) future back to the caller immediately.
        # The active set is entered *at invocation* (paper Section
        # 2.2.4: "invoked, but have not completed"), so a second
        # asynchronous sub-transaction racing the same reactor within
        # this root is refused even if their executions would not
        # physically overlap.
        subtxn_id = root.next_subtxn_id()
        if not reactor.try_enter(root.txn_id, subtxn_id):
            self._step(task, None, DangerousStructureAbort(
                f"asynchronous sub-transactions of txn {root.txn_id} "
                f"race on reactor {reactor.name!r}"
            ))
            return
        future = self._future_cls(remote=True, subtxn_id=subtxn_id,
                                  target_reactor=reactor.name)
        future.birth_seq = root.effect_seq
        task.frames[-1].pending.append(future)
        root.remote_calls += 1
        invocation = Invocation(root, reactor, call.proc_name, call.args,
                                call.kwargs, subtxn_id=subtxn_id,
                                result_future=future)
        trace = root.trace
        if trace is not None:
            trace.open_child(subtxn_id, f"subcall:{reactor.name}",
                             self.scheduler.now,
                             {"proc": call.proc_name})
        self.scheduler.after(
            self.costs.cs + self.costs.transport_delay,
            target.submit, invocation)
        self._busy(task, self.costs.cs, "cs",
                   self._step, task, future, None)

    def _sub_call_target(self, reactor: Any) -> "TransactionExecutor":
        """Which executor serves a sub-call on ``reactor``?

        Same-container reactors with no pinned executor are served
        inline (shared-everything: direct memory access, no migration
        of control).  Pinned reactors are served by their executor.
        """
        pinned = reactor.pinned_executor
        if pinned is not None:
            return pinned
        if reactor.container is self.container:
            return self
        return reactor.container.route(reactor)

    def _run_inline(self, task: Task, reactor: Any, call: CallEffect,
                    subtxn_id: int, entered: bool) -> None:
        future = self._future_cls(remote=False, subtxn_id=subtxn_id,
                                  target_reactor=reactor.name)
        future.birth_seq = task.root.effect_seq
        self._touch_reactor(task, reactor)
        frame = self._push_frame(task, reactor, subtxn_id, entered,
                                 call.proc_name, call.args, call.kwargs)
        frame.inline_future = future
        self._step(task, _NOTHING, None)

    def _handle_get(self, task: Task, get: GetEffect) -> None:
        future = get.future
        if future.resolved:
            cost = self.costs.cr_ready if future.remote else 0.0
            self._busy(task, cost, "cr", self._deliver, task, future)
            return
        # Block; release the executor to other tasks.
        task.state = _BLOCKED
        task.blocked_on = future
        task.block_start = self.scheduler.now
        root = task.root
        if task.is_root and root.effect_seq == future.birth_seq + 1:
            # The get immediately followed the call: this wait is the
            # synchronous execution of the sub-transaction.
            task.block_category = "sync_execution"
        else:
            task.block_category = "async_execution"
        # Backend hook: under threads the resolver may live on another
        # OS thread, so the wake-up is relayed onto this container's
        # work queue instead of running on the resolver's thread.
        self.scheduler.add_waiter(future, self._on_future_ready, task,
                                  container=self._cid)
        self.running = None
        self._kick()

    def _on_future_ready(self, task: Task, future: SimFuture) -> None:
        if task.is_root:
            wait = self.scheduler.now - task.block_start
            task.root.charge(task.block_category, wait)
        trace = task.root.trace
        if trace is not None:
            parent = (None if task.is_root
                      else task.invocation.subtxn_id)
            trace.span("wait:" + task.block_category,
                       task.block_start, self.scheduler.now,
                       {"on": future.target_reactor},
                       parent_key=parent)
        task.state = _READY
        task.blocked_on = None
        task.wake_future = future
        self.ready.append(task)
        self._kick()

    def _resume_woken(self, task: Task) -> None:
        future = task.wake_future
        task.wake_future = None
        task.state = _RUNNING
        self.running = task
        assert future is not None
        cost = self.costs.cr if future.remote else 0.0
        self._busy(task, cost, "cr", self._deliver, task, future)

    def _deliver(self, task: Task, future: SimFuture) -> None:
        try:
            value = future.result()
        except TransactionAbort as abort:
            self._step(task, None, abort)
            return
        self._step(task, value, None)

    # ------------------------------------------------------------------
    # Frame completion / abort
    # ------------------------------------------------------------------

    def _frame_done(self, task: Task, result: Any) -> None:
        frame = task.frames.pop()
        if frame.entered:
            frame.reactor.exit(task.root.txn_id, frame.subtxn_id)
        if task.frames:
            # Inline child finished: resolve its future and hand it to
            # the parent synchronously.
            assert frame.inline_future is not None
            frame.inline_future.resolve(result, self.scheduler.now)
            self._step(task, frame.inline_future, None)
            return
        invocation = task.invocation
        if invocation.result_future is not None:
            # Remote sub-transaction finished on this executor.
            invocation.result_future.resolve(result, self.scheduler.now)
            trace = task.root.trace
            if trace is not None:
                trace.close_child(invocation.subtxn_id,
                                  self.scheduler.now)
            self._finish_task(task)
            return
        self._commit_root(task, result)

    def _frame_aborted(self, task: Task, abort: TransactionAbort) -> None:
        frame = task.frames.pop()
        if frame.entered:
            frame.reactor.exit(task.root.txn_id, frame.subtxn_id)
        if task.frames:
            if frame.inline_future is not None:
                frame.inline_future.consumed = True
                frame.inline_future.fail(abort, self.scheduler.now)
            self._step(task, None, abort)
            return
        invocation = task.invocation
        if invocation.result_future is not None:
            invocation.result_future.fail(abort, self.scheduler.now)
            trace = task.root.trace
            if trace is not None:
                trace.close_child(invocation.subtxn_id,
                                  self.scheduler.now,
                                  {"aborted": True})
            self._finish_task(task)
            return
        self._abort_root(task, abort)

    def _finish_task(self, task: Task) -> None:
        task.state = _DONE
        if self.running is task:
            self.running = None
        self._kick()

    # ------------------------------------------------------------------
    # Root commit / abort
    # ------------------------------------------------------------------

    def _commit_root(self, task: Task, result: Any) -> None:
        root = task.root
        participants = root.participants()
        trace = root.trace
        if trace is not None:
            trace.open_child("commit", "commit", self.scheduler.now,
                             {"participants": len(participants)})
        # The container's CC manager prices the commit phase.  Every
        # built-in scheme currently uses the same footprint-shaped
        # formula (see the pricing note in repro.concurrency.locking),
        # but the hook lets a scheme price its commit differently.
        # Snapshot sessions report zero validation reads — their reads
        # pin versions and are never re-checked, so a snapshot-served
        # read-only commit pays only the base fee.
        cost = self.container.concurrency.commit_cost(
            self.costs, root.total_validation_reads(),
            root.total_writes())
        if len(participants) > 1:
            cost += self.costs.tpc_prepare_per_container * \
                len(participants)
        self._busy(task, cost, "commit", self._do_commit, task, result)

    def _do_commit(self, task: Task, result: Any) -> None:
        root = task.root
        participants = root.participants()
        if not participants:
            # A transaction that touched no data commits trivially
            # (e.g. pure-compute procedures, empty transactions).
            self._complete_root(task, True, None, result)
            return
        database = self.container.database
        if any(manager.failed for manager, __ in participants):
            # A participant container crashed under this transaction
            # (a failover): its writes would land in dead storage, so
            # the commit must not be reported.
            with self.scheduler.commit_guard(root.sessions):
                TwoPhaseCommit(participants).abort(reason=None)
            database.count_failover_abort()
            self._complete_root(task, False, "container failed", None)
            return
        # Backend hook: a no-op guard on sim; under threads it holds
        # the state lock plus every participant container's lock, so
        # validate+install (and the log appends and ack-stage work it
        # triggers) are atomic against the other containers'
        # executing transactions.
        with self.scheduler.commit_guard(root.sessions):
            outcome = TwoPhaseCommit(participants).commit(
                self.scheduler.now)
            root.commit_tid = outcome.commit_tid
            waits = []
            if outcome.committed:
                # The commit installed; the client may only see it
                # once every ack stage's future resolved.
                for stage in database.ack_stages:
                    future = stage.commit_ack_future(root)
                    if future is not None and not future.resolved:
                        waits.append((stage, future))
        trace = root.trace
        if trace is not None:
            now = self.scheduler.now
            if outcome.containers > 1:
                trace.instant("2pc:prepare", now,
                              {"participants": outcome.containers},
                              parent_key="commit")
            if outcome.committed:
                trace.instant("cc:validate", now,
                              {"participants": outcome.containers},
                              parent_key="commit")
                trace.instant("cc:install", now,
                              {"tid": outcome.commit_tid,
                               "writes": outcome.writes},
                              parent_key="commit")
            else:
                trace.instant("cc:abort", now,
                              {"reason": outcome.reason},
                              parent_key="commit")
        if not waits:
            self._complete_root(task, outcome.committed, outcome.reason,
                                result if outcome.committed else None)
            return
        # Deferred completion: the executor core is released while
        # waiting — another admitted task may run, exactly like a
        # block on a remote future.
        if self.running is task:
            self.running = None
            self._kick()
        wait_start = self.scheduler.now
        pending = [stage for stage, __ in waits]
        for stage, future in waits:
            if trace is not None:
                trace.open_child(stage.ack_span, stage.ack_span,
                                 wait_start, parent_key="commit")
            # Relayed through the backend: a resolver may run on
            # another thread, but the wake-up touches this executor.
            self.scheduler.add_waiter(future, self._ack_landed, task,
                                      result, stage, pending,
                                      wait_start, container=self._cid)

    def _ack_landed(self, task: Task, result: Any, stage: Any,
                    pending: list, wait_start: float,
                    future: Any) -> None:
        """One ack stage's future resolved; once all have, report.

        If a participant container died during the wait, a stage may
        veto the report (``AckStage.commit_veto``): the root is then
        reported aborted rather than as a commit that failover could
        lose.
        """
        root = task.root
        now = self.scheduler.now
        if root.trace is not None:
            root.trace.close_child(stage.ack_span, now)
        pending.remove(stage)
        if pending:
            return
        # The stage waits overlap on the clock: charge their union.
        root.charge("commit_input_gen", now - wait_start)
        database = self.container.database
        for stage in database.ack_stages:
            reason = stage.commit_veto(root)
            if reason is not None:
                database.count_failover_abort()
                self._complete_root(task, False, reason, None)
                return
        self._complete_root(task, True, None, result)

    def _abort_root(self, task: Task, abort: TransactionAbort) -> None:
        root = task.root
        root.user_abort = not isinstance(
            abort, (DangerousStructureAbort, CCAbort))
        participants = root.participants()
        if participants:
            # CC-initiated aborts (lock conflicts, wounds...) were
            # already counted at their raise site; attribute only
            # application/safety aborts here.
            if isinstance(abort, CCAbort):
                reason = None
            elif isinstance(abort, DangerousStructureAbort):
                reason = "dangerous_structure"
            else:
                reason = "user"
            with self.scheduler.commit_guard(root.sessions):
                TwoPhaseCommit(participants).abort(reason)
        self._busy(task, self.costs.abort_cost, "commit",
                   self._complete_root, task, False, str(abort), None)

    def _complete_root(self, task: Task, committed: bool,
                       reason: str | None, result: Any) -> None:
        root = task.root
        root.finished = True
        for reactor in root.reactor_refs:
            reactor.inflight_roots.discard(root.txn_id)
        database = self.container.database
        # Backend hook: telemetry counters, ack-stage bookkeeping, the
        # snapshot-pin watermark and the history recorder are shared
        # across containers — a no-op guard on sim, the state lock on
        # the threads backend.
        with self.scheduler.state_guard():
            database.telemetry.note_root_done(root, committed, reason,
                                              self.scheduler.now)
            # The acknowledgement instant: every stage hears the
            # outcome the client hears.
            for stage in database.ack_stages:
                stage.commit_reported(root, committed)
            # Release the root's pinned snapshot (if any): the storage
            # GC watermark advances with the in-flight snapshot set,
            # so the next install can prune versions only this root
            # could see.
            database.storage.unpin(root.txn_id)
            if not committed and root.read_only:
                database.storage.note_read_only_abort(
                    database.deployment.cc_scheme)
            recorder = database.history_recorder
            if recorder is not None:
                if committed:
                    recorder.record_commit(root.txn_id)
                else:
                    recorder.record_abort(root.txn_id)
        self._finish_task(task)
        callback = task.invocation.on_root_done
        if callback is not None:
            self.scheduler.after(self.costs.transport_delay, callback,
                                 root, committed, reason, result)


#: Charge-category -> Figure 6 breakdown bucket.
_BREAKDOWN = {
    "exec": "sync_execution",
    "cs": "cs",
    "cr": "cr",
    "commit": "commit_input_gen",
}
