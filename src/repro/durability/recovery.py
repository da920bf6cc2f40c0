"""Crash recovery: group commit, incremental checkpoints, replay.

The :class:`DurabilityManager` owns one database's durability state:

* the per-container redo logs (as before), plus the per-container
  :class:`~repro.durability.group_commit.LogFlusher` pipelines that
  decide *when* an appended record is actually durable — sync
  force-at-commit, epoch-based group commit, or background (async)
  flushing, per the deployment's ``durability_mode``;
* the full append sequence per container (``installed``), which
  survives checkpoint log truncation and is the reference order
  :func:`repro.formal.audit.certify_crash_recovery` certifies crash
  images against;
* dirty-key tracking (from the redo append stream) feeding
  *incremental checkpoints*: a chained
  :class:`~repro.durability.checkpoint.CheckpointManifest` whose
  segments carry only the keys written since the previous segment, and
  whose WAL-truncation watermark respects pinned MVCC snapshots,
  replica apply positions, and in-flight/just-completed migrations;
* :meth:`crash` — the kill-at-arbitrary-epoch primitive: an
  epoch-consistent :class:`CrashImage` of what would survive on disk
  (the flushed prefix of each log, with cross-container torn commits
  dropped so a transaction is recovered either everywhere or
  nowhere).

Recovery rebuilds a fresh database (same reactor declarations, any
deployment — architecture virtualization extends to recovery) from a
checkpoint, then replays redo records with commit TIDs above the
checkpoint watermark in global TID order.  Replay is idempotent on
after-images, so replaying from an older checkpoint with a longer log
yields the same state.  :mod:`repro.durability.partitioned` adds the
parallel SiloR-style variant (per-reactor partitions replayed
concurrently on the sim scheduler, priced in virtual time).

Replay goes through the regular ``install_*`` paths of the recovered
database's tables, i.e. through the multi-version storage engine: the
rebuilt records carry their replayed commit TIDs, so post-recovery
snapshot readers (``mvocc`` / ``snapshot_reads`` deployments) pin and
resolve against the recovered state exactly as against an original
one, and new version chains grow from it on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.durability.checkpoint import (
    FULL,
    INCREMENTAL,
    Checkpoint,
    CheckpointManifest,
    CheckpointSegment,
    require_quiescence,
)
from repro.durability.config import ASYNC, DURABILITY_MODES
from repro.durability.group_commit import LogFlusher
from repro.durability.wal import RedoLog, RedoRecord, apply_record_to
from repro.errors import SimulationError
from repro.runtime.ack import AckStage
from repro.runtime.futures import SimFuture

if TYPE_CHECKING:  # deployment.py imports this package's config at
    # module scope, so the runtime import of core.database is deferred
    # into recover() to keep the bootstrap acyclic.
    from repro.core.database import ReactorDatabase
    from repro.core.deployment import DeploymentConfig


@dataclass
class CrashImage:
    """What the log devices would hold after a crash right now.

    ``logs`` carry, per container, the durable (flushed) record prefix
    above the last truncation point, with *torn* cross-container
    commits removed: a distributed commit whose record flushed in one
    participant's epoch but not (yet) in another's is dropped
    everywhere, so recovery treats it as never-happened instead of
    replaying half a transaction (``torn_tids`` reports the drops —
    under ``sync``/``group`` only ever unacknowledged commits, because
    acknowledgement waits on every participant's flush; ``async``
    acknowledges before flushing, so its torn drops can include acked
    commits, which the certificate reports as part of the async loss
    window).  ``manifest`` is a deep copy of the checkpoint chain at
    crash time.
    """

    at_us: float
    mode: str
    manifest: CheckpointManifest
    logs: dict[int, list[RedoRecord]]
    durable_tids: dict[int, int] = field(default_factory=dict)
    flushed_counts: dict[int, int] = field(default_factory=dict)
    truncated_through: dict[int, int] = field(default_factory=dict)
    #: Commit sites — ``(container id, append position)`` pairs —
    #: of transactions acknowledged to clients before the crash.
    #: (Positions, not TIDs: TIDs are only unique per container.)
    acked_sites: list[tuple[int, int]] = field(default_factory=list)
    #: Commit TIDs acknowledged before the crash (reporting only).
    acked_tids: list[int] = field(default_factory=list)
    #: Sites dropped for cross-container epoch consistency.
    torn_sites: list[tuple[int, int]] = field(default_factory=list)
    #: Per-container TIDs of the dropped sites (reporting only).
    torn_tids: dict[int, list[int]] = field(default_factory=dict)

    def checkpoint(self) -> Checkpoint:
        return self.manifest.materialize()

    def to_logs(self) -> list[RedoLog]:
        """The surviving logs as replayable :class:`RedoLog`
        instances — what a restart mounts."""
        logs = []
        for cid, records in self.logs.items():
            log = RedoLog(cid)
            log.records = list(records)
            log.truncated_through = self.truncated_through.get(cid, 0)
            logs.append(log)
        return logs


class DurabilityManager(AckStage):
    """Owns the redo logs + flush pipelines of one database.

    It is also the database's durability :class:`AckStage`: a
    ``sync``/``group`` commit is reported only once its flush landed.
    """

    ack_span = "durability:ack_wait"

    def __init__(self, database: Any, mode: str = ASYNC) -> None:
        if mode not in DURABILITY_MODES:
            raise SimulationError(
                f"unknown durability mode {mode!r}; expected one of "
                f"{', '.join(DURABILITY_MODES)}")
        self.database = database
        self.mode = mode
        self.logs: dict[int, RedoLog] = {}
        self.flushers: dict[int, LogFlusher] = {}
        #: container id -> full append sequence (survives truncation;
        #: the reference order crash certification replays against).
        self.installed: dict[int, list[RedoRecord]] = {}
        #: Commit TIDs reported committed to clients (the executor
        #: notes them at root completion).  A *set* of numbers — TIDs
        #: can collide across containers, so ``acked_count`` (roots)
        #: is the accurate tally.
        self.acked_tids: set[int] = set()
        self.acked_count = 0
        #: Acked commit sites as ``(cid, append position)`` — the
        #: collision-free identity (TIDs are per-container sequences,
        #: so the same number can name unrelated commits on two
        #: containers).
        self.acked_sites: list[tuple[int, int]] = []
        #: root txn id -> this commit's sites, captured at install.
        self._sites: dict[int, list[tuple[int, int]]] = {}
        #: Cross-container commit groups (>= 2 sites): the units the
        #: crash image keeps atomic — durable everywhere or dropped
        #: everywhere.
        self.cross_groups: list[list[tuple[int, int]]] = []
        #: The incremental-checkpoint chain.
        self.manifest = CheckpointManifest()
        self._segment_seq = 0
        #: reactor -> table -> dirty primary keys since the last
        #: checkpoint segment (fed by the redo append stream and
        #: explicit bulk-load notes).
        self._dirty: dict[str, dict[str, set[tuple]]] = {}
        self.checkpoints_taken = 0
        self.records_truncated = 0
        #: Deliberate-bug toggle (chaos self-test only): acknowledge
        #: group/sync commits without waiting for their epoch flush —
        #: the classic ack-before-flush bug crash certification must
        #: catch as acked-commit loss.
        self.chaos_ack_bypass = False
        telemetry = getattr(database, "telemetry", None)
        if telemetry is not None:
            telemetry.register_durability(self)
        database.ack_stages.append(self)
        for container in database.containers:
            log = RedoLog(container.container_id)
            container.concurrency.redo_log = log
            self._attach_log(container.container_id, log)

    # ------------------------------------------------------------------
    # Log wiring
    # ------------------------------------------------------------------

    def _attach_log(self, container_id: int, log: RedoLog) -> None:
        self.logs[container_id] = log
        self.installed.setdefault(container_id, [])
        telemetry = getattr(self.database, "telemetry", None)
        flusher = LogFlusher(container_id, self.database.scheduler,
                             self.database.costs, self.mode,
                             telemetry=telemetry)
        self.flushers[container_id] = flusher
        if telemetry is not None:
            # Idempotent: a promotion re-attaches the same container
            # label and the gauges re-point to the new flusher.
            telemetry.register_flusher(flusher)

        def on_append(record: RedoRecord,
                      cid: int = container_id,
                      flusher: LogFlusher = flusher) -> None:
            self.installed[cid].append(record)
            self._note_dirty(record)
            flusher.on_append(record)

        log.add_listener(on_append)

    def on_log_replaced(self, container_id: int,
                        log: RedoLog) -> None:
        """A replication promotion re-anchored a container's log on
        the survivor's applied prefix: adopt it.  The seeded prefix is
        durable by construction (the replica had materialized it), so
        the new flusher starts fully flushed.  Stored commit sites on
        this container are remapped by TID into the new sequence
        (unique per container); sites the survivor never applied —
        the async lag-window loss replication's own certificate
        reports — are dropped here.
        """
        old_installed = self.installed.get(container_id, [])
        self._attach_log(container_id, log)
        self.installed[container_id] = list(log.records)
        flusher = self.flushers[container_id]
        flusher.flushed_records = len(log.records)
        flusher.durable_tid = max(
            (r.commit_tid for r in log.records), default=0)
        for record in log.records:
            self._note_dirty(record)
        position_of = {record.commit_tid: pos
                       for pos, record in enumerate(log.records)}

        def remap(sites: list[tuple[int, int]]
                  ) -> list[tuple[int, int]]:
            out = []
            for cid, pos in sites:
                if cid != container_id:
                    out.append((cid, pos))
                    continue
                tid = old_installed[pos].commit_tid \
                    if pos < len(old_installed) else None
                new_pos = position_of.get(tid)
                if new_pos is not None:
                    out.append((cid, new_pos))
            return out

        self.acked_sites = remap(self.acked_sites)
        self.cross_groups = [remap(group)
                             for group in self.cross_groups]
        self.cross_groups = [g for g in self.cross_groups
                             if len(g) > 1]
        self._sites = {txn: remap(sites)
                       for txn, sites in self._sites.items()}

    def _note_dirty(self, record: RedoRecord) -> None:
        for entry in record.entries:
            self._dirty.setdefault(entry.reactor, {}) \
                .setdefault(entry.table, set()).add(entry.pk)

    def note_bulk_load(self, reactor_name: str, table_name: str,
                       pks: Iterable[tuple]) -> None:
        """Bulk loads bypass the redo log; the dirty tracker must
        still see their keys or the next incremental segment would
        miss them."""
        self._dirty.setdefault(reactor_name, {}) \
            .setdefault(table_name, set()).update(pks)

    # ------------------------------------------------------------------
    # Commit acknowledgement (the AckStage hooks the executor drives)
    # ------------------------------------------------------------------

    def commit_ack_future(self, root: Any) -> SimFuture | None:
        """The future a just-installed commit must wait on before the
        client may see it, or ``None`` when it is already durable
        (read-only commits, ``async`` mode, or a flush that landed
        within the install event).

        Called synchronously in the install event, which is also the
        one moment this commit's records are the tails of their
        containers' append sequences — where its *sites* are captured
        for crash certification (2PC commit TIDs strictly exceed every
        prior TID on every participant, so a tail TID match is this
        commit's record, never an older collision).
        """
        futures = []
        sites: list[tuple[int, int]] = []
        for manager, __ in root.participants():
            cid = manager.container_id
            flusher = self.flushers.get(cid)
            if flusher is None:
                continue
            records = self.installed[cid]
            if records and records[-1].commit_tid == root.commit_tid:
                sites.append((cid, len(records) - 1))
            future = flusher.ack_future(root.commit_tid)
            if future is not None:
                futures.append(future)
        if sites:
            self._sites[root.txn_id] = sites
            if len(sites) > 1:
                self.cross_groups.append(sites)
        if self.chaos_ack_bypass:
            # Bug toggle: report the commit durable *now*, flush
            # pending.  Site capture above already ran, so the ack is
            # recorded and a crash inside the flush window shows up as
            # ``lost_acked`` — silently skipping the capture too would
            # make the bug invisible to the certificate.
            return None
        if not futures:
            return None
        if len(futures) == 1:
            return futures[0]
        # A cross-container commit is acknowledged only when *every*
        # participant's epoch flushed — the property that keeps acked
        # commits atomic across kill-at-arbitrary-epoch crashes.
        scheduler = self.database.scheduler
        future_cls = getattr(scheduler, "future_class", None) or SimFuture
        joint = future_cls(remote=False, subtxn_id=0,
                           target_reactor="log:join")
        remaining = {"n": len(futures)}

        def one_done(fut: SimFuture) -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                joint.resolve(None, scheduler.now)

        for future in futures:
            future.add_waiter(one_done)
        return joint

    def commit_reported(self, root: Any, committed: bool) -> None:
        """The acknowledgement instant: the commits clients saw are
        what crash certification holds recovery to (acked => durable
        for sync/group; async reports its loss window instead).  A
        root reported aborted (including an in-doubt failover outcome)
        leaves its installed records, if any, unacked."""
        sites = self._sites.pop(root.txn_id, None)
        if not committed:
            return
        self.acked_count += 1
        if sites:
            self.acked_sites.extend(sites)
        if root.commit_tid:
            self.acked_tids.add(root.commit_tid)

    def kick_flush(self, container_id: int) -> None:
        """Close and flush the container's open epoch now (durability
        barrier: migration state copies force the source log down
        before its state leaves the container)."""
        flusher = self.flushers.get(container_id)
        if flusher is not None:
            flusher.kick()

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def checkpoint_and_truncate(self) -> Checkpoint:
        """Take a quiescent *full* checkpoint segment and truncate
        covered log prefixes (the usual checkpoint/log interplay).
        Returns the materialized flat checkpoint."""
        self.incremental_checkpoint(force_full=True)
        return self.manifest.materialize()

    def incremental_checkpoint(self,
                               force_full: bool = False
                               ) -> CheckpointSegment:
        """Append a checkpoint segment to the manifest.

        The first segment (or ``force_full``) snapshots everything;
        later segments carry only the keys dirtied since the previous
        one.  Requires quiescence — at a drained scheduler every
        pending flush has landed, so a segment never persists state
        ahead of the log (checkpoints cannot resurrect unflushed
        commits).  Covered log prefixes are truncated through
        :meth:`safe_truncation_tid`.
        """
        database = self.database
        require_quiescence(database)
        self._segment_seq += 1
        full = force_full or self.manifest.empty
        if full:
            segment = CheckpointSegment(
                seq=self._segment_seq, kind=FULL, parent_seq=None,
                taken_at_us=database.scheduler.now)
            for name in database.reactor_names():
                reactor = database.reactor(name)
                by_table = segment.rows.setdefault(name, {})
                for table in reactor.catalog:
                    by_table[table.name] = [
                        {**row, "__pk": list(
                            table.schema.primary_key_of(row))}
                        for row in table.rows()
                    ]
            # A full segment restarts the chain: older segments are
            # subsumed.
            self.manifest = CheckpointManifest(segments=[segment])
        else:
            parent = self.manifest.segments[-1]
            segment = CheckpointSegment(
                seq=self._segment_seq, kind=INCREMENTAL,
                parent_seq=parent.seq,
                taken_at_us=database.scheduler.now)
            for reactor_name, tables in sorted(self._dirty.items()):
                reactor = database.reactor(reactor_name)
                for table_name, pks in sorted(tables.items()):
                    table = reactor.table(table_name)
                    rows: list[dict[str, Any]] = []
                    deleted: list[list[Any]] = []
                    for pk in sorted(pks, key=repr):
                        record = table.get_record(pk)
                        if record is None:
                            deleted.append(list(pk))
                        else:
                            rows.append({**record.snapshot(),
                                         "__pk": list(pk)})
                    if rows:
                        segment.rows.setdefault(
                            reactor_name, {})[table_name] = rows
                    if deleted:
                        segment.deleted.setdefault(
                            reactor_name, {})[table_name] = deleted
            self.manifest.segments.append(segment)
        for container in database.containers:
            segment.tid_watermarks[container.container_id] = \
                container.concurrency.tids.last
        self._dirty = {}
        for container_id, log in self.logs.items():
            safe = self.safe_truncation_tid(
                container_id,
                segment.tid_watermarks.get(container_id, 0))
            segment.truncate_tids[container_id] = safe
            self.records_truncated += log.truncate_through(safe)
        self.checkpoints_taken += 1
        return segment

    def safe_truncation_tid(self, container_id: int,
                            checkpoint_tid: int) -> int:
        """How far this container's WAL may be truncated.

        Floored below the checkpoint watermark by (1) pinned MVCC
        snapshots — the black-box snapshot-isolation audit checks
        observed reads against logged history at or above the pin;
        (2) replica apply positions — a lagging replica's unapplied
        suffix stays replayable; (3) migration watermarks — an active
        migration's certificate replays the destination log above its
        watermark, and the last completed migration per reactor keeps
        its anchors until superseded.
        """
        tid = checkpoint_tid
        database = self.database
        storage = getattr(database, "storage", None)
        if storage is not None and storage.pinned:
            # Keep the record *at* the pin too: a stale read at the
            # snapshot is only caught if the write with commit TID in
            # (observed, snapshot] is still logged.  (At quiescence
            # in-flight roots have unpinned — this floor covers pins
            # held through the checkpoint by external consumers.)
            tid = min(tid, min(pin_tid for pin_tid, __
                               in storage.pinned.values()) - 1)
        replication = getattr(database, "replication", None)
        if replication is not None:
            for replica in replication.replicas.get(container_id, []):
                tid = min(tid, replica.applied_tid)
        migration = getattr(database, "migration", None)
        if migration is not None:
            for event in migration.active.values():
                if container_id in (event.src_cid, event.dst_cid):
                    tid = min(tid, event.watermark)
            for event in migration._last_completed.values():
                if event.dst_cid == container_id:
                    tid = min(tid, event.watermark)
        return tid

    # ------------------------------------------------------------------
    # Crash
    # ------------------------------------------------------------------

    def crash(self) -> CrashImage:
        """Snapshot what would survive a crash at this instant.

        Callable at *any* virtual time — mid-epoch, with flushes in
        flight — unlike checkpoints, which require quiescence.  The
        image holds each container's flushed record prefix (above its
        truncation point) with torn cross-container commits dropped,
        a deep copy of the checkpoint manifest, and the set of commits
        clients saw acknowledged.
        """
        flushed = {cid: flusher.flushed_records
                   for cid, flusher in self.flushers.items()}
        # Cross-container epoch consistency: a distributed commit
        # whose record flushed on some participants but not all is
        # dropped from the durable image everywhere.  Acked commits
        # are never affected — acknowledgement waited on every
        # participant's flush.
        torn_sites: list[tuple[int, int]] = []
        for group in self.cross_groups:
            durable_members = [(cid, pos) for cid, pos in group
                               if pos < flushed.get(cid, 0)]
            if durable_members and \
                    len(durable_members) < len(group):
                torn_sites.extend(durable_members)
        torn_by_cid: dict[int, set[int]] = {}
        torn_tids: dict[int, list[int]] = {}
        for cid, pos in torn_sites:
            torn_by_cid.setdefault(cid, set()).add(pos)
            torn_tids.setdefault(cid, []).append(
                self.installed[cid][pos].commit_tid)
        durable: dict[int, list[RedoRecord]] = {}
        for cid, log in self.logs.items():
            dropped = torn_by_cid.get(cid, ())
            durable[cid] = [
                record for pos, record in enumerate(
                    self.installed[cid][:flushed.get(cid, 0)])
                if record.commit_tid > log.truncated_through
                and pos not in dropped
            ]
        return CrashImage(
            at_us=self.database.scheduler.now,
            mode=self.mode,
            manifest=CheckpointManifest.from_json(
                self.manifest.to_json()),
            logs=durable,
            durable_tids={cid: f.durable_tid
                          for cid, f in self.flushers.items()},
            flushed_counts=flushed,
            truncated_through={cid: log.truncated_through
                               for cid, log in self.logs.items()},
            acked_sites=list(self.acked_sites),
            acked_tids=sorted(self.acked_tids),
            torn_sites=torn_sites,
            torn_tids=torn_tids,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def log_records(self):
        for log in self.logs.values():
            yield from log.records

    def stats_dict(self) -> dict[str, Any]:
        telemetry = getattr(self.database, "telemetry", None)
        if telemetry is not None:
            value = telemetry.registry.value
            return {
                "mode": self.mode,
                "acked_commits":
                    value("durability_acked_commits_total"),
                "checkpoints_taken":
                    value("durability_checkpoints_total"),
                "checkpoint_segments":
                    value("durability_checkpoint_segments"),
                "records_truncated":
                    value("durability_records_truncated_total"),
                "flushers": {cid: flusher.stats_dict()
                             for cid, flusher in
                             sorted(self.flushers.items())},
            }
        return {
            "mode": self.mode,
            "acked_commits": self.acked_count,
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_segments": len(self.manifest.segments),
            "records_truncated": self.records_truncated,
            "flushers": {cid: flusher.stats_dict()
                         for cid, flusher in
                         sorted(self.flushers.items())},
        }


def enable_durability(database: Any,
                      mode: str | None = None) -> DurabilityManager:
    """Attach redo logging to a database (idempotent per database).

    ``mode`` selects the commit-acknowledgement discipline (``sync`` /
    ``group`` / ``async``); omitted, it defaults to ``async`` — pure
    background flushing, which acknowledges commits immediately and
    therefore preserves the timing of the original logging-only
    behaviour (replication and migration enable durability implicitly
    through this default).  A second call returns the existing manager
    instead of replacing the containers' logs — an application calling
    :func:`enable_durability` after replication attached must not
    detach the logs the replication manager is shipping from.
    """
    existing = getattr(database, "durability", None)
    if existing is not None:
        return existing
    manager = DurabilityManager(database, mode=mode or ASYNC)
    database.durability = manager
    return manager


def recover(deployment: DeploymentConfig,
            declarations: Sequence[tuple[str, Any]],
            checkpoint: Checkpoint | CheckpointManifest,
            logs: Iterable[RedoLog]) -> ReactorDatabase:
    """Rebuild a database from a checkpoint plus redo logs.

    ``checkpoint`` may be a flat :class:`Checkpoint` or a chained
    :class:`CheckpointManifest` (materialized on the way in).  The
    recovered database may use a *different* deployment than the
    crashed one — reactor state is logical, architecture is physical.
    For the priced, parallel variant see
    :func:`repro.durability.partitioned.recover_partitioned`.
    """
    from repro.core.database import ReactorDatabase

    if isinstance(checkpoint, CheckpointManifest):
        checkpoint = checkpoint.materialize()
    database = ReactorDatabase(deployment, declarations)

    # Phase 1: restore the checkpoint image.
    for reactor_name, tables in checkpoint.reactors.items():
        for table_name, rows in tables.items():
            table = database.reactor(reactor_name).table(table_name)
            for row in rows:
                table.load_row(row)

    # Phase 2: replay redo records beyond the checkpoint, in global
    # commit-TID order (Silo TIDs order conflicting transactions).
    pending = []
    for log in logs:
        watermark = checkpoint.tid_watermarks.get(log.container_id, 0)
        for record in log.records:
            if record.commit_tid > watermark:
                pending.append(record)
    pending.sort(key=lambda record: record.commit_tid)

    def table_for(reactor_name: str, table_name: str):
        return database.reactor(reactor_name).table(table_name)

    max_tid = 0
    for record in pending:
        max_tid = max(max_tid, record.commit_tid)
        apply_record_to(table_for, record)

    _finish_recovery(database, checkpoint, max_tid)
    return database


def recover_from_image(deployment: DeploymentConfig,
                       declarations: Sequence[tuple[str, Any]],
                       image: CrashImage) -> ReactorDatabase:
    """Recover from a :class:`CrashImage` (checkpoint manifest plus
    the durable log prefixes) — what a restart after
    :meth:`DurabilityManager.crash` sees."""
    return recover(deployment, declarations, image.manifest,
                   image.to_logs())


def _finish_recovery(database: ReactorDatabase, checkpoint: Checkpoint,
                     max_tid: int) -> None:
    """Shared recovery epilogue: TID watermarks and replica seeding."""
    # Restore TID watermarks so post-recovery commits continue above
    # everything replayed.
    for container in database.containers:
        watermark = max(
            checkpoint.tid_watermarks.get(container.container_id, 0),
            max_tid)
        container.concurrency.tids.advance_to(watermark)

    # A replication-enabled target deployment: seed the replicas with
    # the recovered state (checkpoint restore and replay wrote primary
    # tables directly, bypassing the bulk-load mirror).  The recovered
    # image is the replicas' new base; subsequent commits ship on top.
    if database.replication is not None:
        for name in database.reactor_names():
            reactor = database.reactor(name)
            for table in reactor.catalog:
                table_rows = table.rows()
                if table_rows:
                    database.replication.on_bulk_load(
                        name, table.name, table_rows)
