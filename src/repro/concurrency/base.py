"""The pluggable concurrency-control (CC) abstraction.

Database architecture is a deployment-time choice (the paper's central
claim) — and so is the concurrency scheme.  This module defines the
protocol every scheme implements, the machinery they share, and the
registry that maps a ``cc_scheme`` deployment string to a per-container
manager:

* :class:`CCSession` — the transactional record manager for one (root
  transaction, container) pair.  It owns the read-your-writes overlay:
  reads/scans/inserts/updates/deletes of reactor procedures flow
  through it, writes are buffered as :class:`WriteIntent`\\ s until
  commit.  Schemes customize behaviour through three hooks:
  :meth:`CCSession._begin_op` (runs before every data operation),
  :meth:`CCSession._register_read` / :meth:`CCSession._register_node`
  (a committed record / index-or-table structure joined the read
  footprint) and :meth:`CCSession._set_intent` (a write joined the
  write set) — OCC records versions to validate later, 2PL acquires
  locks eagerly, passthrough does neither.

* :class:`ConcurrencyControl` — the per-container manager: owns the
  TID generator, the shared :class:`CCStats` counters and the optional
  redo log, and drives ``validate`` / ``install`` / ``abort``.  The
  write-installation phase is scheme-independent and lives here.

* :func:`register_cc_scheme` / :func:`create_cc_scheme` — the scheme
  registry.  Built-in schemes: ``"occ"`` (Silo-style optimistic,
  :mod:`repro.concurrency.occ`), ``"mvocc"`` (multi-version OCC:
  Silo-OCC writers plus abort-free snapshot-isolated read-only roots,
  :mod:`repro.concurrency.mvcc`), ``"2pl_nowait"`` and
  ``"2pl_waitdie"`` (two-phase locking,
  :mod:`repro.concurrency.locking`), and ``"none"``
  (:class:`PassthroughCC`, the explicit no-concurrency-control
  scheme).

Every data operation returns the number of records *examined* along
with its result, so the execution runtime can charge simulated CPU
proportional to real work done.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, Mapping

from repro.errors import (
    DeploymentError,
    DuplicateKeyError,
    QueryError,
    ReactorError,
    ReadOnlyViolation,
    RecordNotFound,
)
from repro.concurrency.tid import EpochManager, TidGenerator
from repro.relational.index import HashIndex, OrderedIndex
from repro.relational.predicate import ALWAYS, Predicate
from repro.relational.table import Table
from repro.storage.record import VersionedRecord

Row = dict[str, Any]

INSERT = "insert"
UPDATE = "update"
DELETE = "delete"

def _intent_order_key(intent: "WriteIntent") -> tuple[str, str]:
    """Deterministic global lock order for write intents.

    ``repr(pk)`` (not the raw tuple) keeps heterogeneous key types
    comparable *and* is what every committed history was produced
    under — changing it would reorder lock acquisition and break
    byte-identical replay.
    """
    return (intent.table.name, repr(intent.pk))


def require_hash_equality(index_name: str, low: tuple | None,
                          high: tuple | None) -> None:
    """The shared hash-index scan contract: equality only.

    One definition for every session kind (validated and snapshot), so
    a procedure's scans behave identically whichever session serves
    them.
    """
    if low is None or low != high:
        raise QueryError(
            f"hash index {index_name!r} supports equality only; "
            "pass low == high"
        )


class WriteIntent:
    """A buffered write: what to do to one primary key at commit."""

    __slots__ = ("kind", "table", "pk", "record", "new_value")

    def __init__(self, kind: str, table: Table, pk: tuple,
                 record: VersionedRecord | None,
                 new_value: Row | None) -> None:
        self.kind = kind
        self.table = table
        self.pk = pk
        self.record = record
        self.new_value = new_value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WriteIntent({self.kind}, {self.table.name}, {self.pk!r})"


class ScanResult:
    """Rows returned by a scan plus the number of records examined."""

    __slots__ = ("rows", "examined")

    def __init__(self, rows: list[Row], examined: int) -> None:
        self.rows = rows
        self.examined = examined

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


#: Sentinel ``out_order``: the scan's candidate walk already visits
#: records in result order (see :meth:`CCSession._collect_candidates`).
_CANDIDATE_ORDER = object()


@dataclass(slots=True)
class CCStats:
    """Shared per-container counters, one set per scheme instance.

    Counters record *events at the container where they occur*: a
    multi-container transaction that fails validation in one container
    counts one validation failure there and nothing in its siblings; a
    user abort spanning three containers counts once per container.
    """

    #: commit-time validations attempted (every scheme counts these).
    validations: int = 0
    #: OCC: stale read / locked read / phantom detected at validation.
    validation_failures: int = 0
    #: 2PL NO_WAIT: lock requests refused because of a conflict.
    lock_conflicts: int = 0
    #: 2PL WAIT_DIE: younger requesters that died instead of waiting.
    deadlock_avoidance: int = 0
    #: 2PL WAIT_DIE: younger holders wounded by an older requester.
    wounds: int = 0
    #: application-initiated aborts observed by this container.
    user_aborts: int = 0
    #: dynamic intra-transaction safety violations (Section 2.2.4).
    dangerous_structure_aborts: int = 0

    def merge(self, other: "CCStats") -> None:
        for spec in fields(self):
            setattr(self, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))

    def abort_reasons(self) -> dict[str, int]:
        """Abort events keyed by reason (the per-reason breakdown)."""
        return {
            "validation_failure": self.validation_failures,
            "lock_conflict": self.lock_conflicts,
            "deadlock_avoidance": self.deadlock_avoidance,
            "wound": self.wounds,
            "user": self.user_aborts,
            "dangerous_structure": self.dangerous_structure_aborts,
        }


class CCSession:
    """Read/write sets of one root transaction within one container.

    The base class is a complete record manager (overlay semantics,
    scan paths, intent merging); concrete schemes subclass it and
    override the footprint hooks.  One session exists per (root
    transaction, container); its manager drives validation,
    installation and abort.
    """

    __slots__ = ("txn_id", "container_id", "owner", "_reads",
                 "_writes", "_node_checks", "_locked", "_placeholders",
                 "finished", "_sorted_intents")

    def __init__(self, txn_id: int, container_id: int) -> None:
        self.txn_id = txn_id
        self.container_id = container_id
        #: The owning RootTransaction when driven by the runtime
        #: (``None`` for manually driven sessions).  Schemes use it
        #: for transaction-wide state shared across that root's
        #: per-container sessions — e.g. 2PL wound propagation.
        self.owner: Any = None
        # record -> tid seen at first read (records hash by identity,
        # so this is the id(record)-keyed map without the id() calls)
        self._reads: dict[VersionedRecord, int] = {}
        # (id(table), pk) -> WriteIntent
        self._writes: dict[tuple[int, tuple], WriteIntent] = {}
        # (object with .structure_version, version seen) — phantom guard
        self._node_checks: dict[int, tuple[Any, int]] = {}
        self._locked: list[VersionedRecord] = []
        #: insert placeholders this session materialized in tables;
        #: reclaimed on abort unless revived by a committed insert.
        self._placeholders: list[tuple[Table, VersionedRecord]] = []
        self.finished = False
        #: Memoized :meth:`sorted_intents` result; validation and
        #: installation both walk the ordered write set, and the sort
        #: only has to happen once per commit.  Invalidated whenever
        #: the write set changes.
        self._sorted_intents: list[WriteIntent] | None = None

    # ------------------------------------------------------------------
    # Scheme hooks
    # ------------------------------------------------------------------

    def _begin_op(self) -> None:
        """Runs before every public data operation (2PL: wound check)."""

    def _check_writable(self) -> None:
        """Refuse writes of read-only root transactions.

        A root marked read-only may have been routed to a read replica
        (see :mod:`repro.replication`) or be running on a multi-version
        snapshot; its writes must abort rather than mutate state the
        reader was promised not to touch — and for symmetry the same
        contract holds when it ran on the primary.  Every mutation path
        (insert, update, delete) raises the same typed
        :class:`~repro.errors.ReadOnlyViolation`.
        """
        if self.owner is not None and \
                getattr(self.owner, "read_only", False):
            raise ReadOnlyViolation(
                f"read-only transaction {self.txn_id} attempted a "
                "write"
            )

    def _register_read(self, record: VersionedRecord) -> None:
        """A committed record joined the read footprint."""
        if record not in self._reads:
            self._reads[record] = record.tid

    def _register_node(self, node: Any) -> None:
        """A table/index structure joined the read footprint (scan or
        read-miss: guards against phantoms)."""
        key = id(node)
        if key not in self._node_checks:
            self._node_checks[key] = (node, node.structure_version)

    def _set_intent(self, intent: WriteIntent) -> None:
        """A write joined (or replaced an entry of) the write set."""
        self._writes[(id(intent.table), intent.pk)] = intent
        self._sorted_intents = None

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------

    @property
    def read_count(self) -> int:
        return len(self._reads)

    @property
    def validation_read_count(self) -> int:
        """Reads commit-time validation must walk.

        Equals :attr:`read_count` for validated sessions; snapshot
        sessions override it to 0 — their reads pin a version, nothing
        is re-checked at commit, so the commit path charges nothing
        per read.
        """
        return len(self._reads)

    @property
    def write_count(self) -> int:
        return len(self._writes)

    def _intent_for(self, table: Table, pk: tuple) -> WriteIntent | None:
        return self._writes.get((id(table), pk))

    def _drop_intent(self, table: Table, pk: tuple) -> None:
        self._writes.pop((id(table), pk), None)
        self._sorted_intents = None

    # ------------------------------------------------------------------
    # Transactional data operations (the record manager interface)
    # ------------------------------------------------------------------

    def read(self, table: Table, pk: tuple) -> tuple[Row | None, int]:
        """Point read by primary key; returns (row or None, examined)."""
        self._begin_op()
        intent = self._writes.get((id(table), pk))
        if intent is not None:
            if intent.kind == DELETE:
                return None, 1
            assert intent.new_value is not None
            return dict(intent.new_value), 1
        record = table.store.get(pk)
        if record is None:
            # A miss is also a predicate read: guard against a phantom
            # insert of this key by validating the table structure.
            self._register_node(table)
            return None, 1
        self._register_read(record)
        return dict(record.value), 1

    def multi_read(self, table: Table,
                   pks: Iterable[tuple]) -> tuple[list[Row | None], int]:
        """Vectorized point reads: one overlay/version walk per batch.

        Semantically identical to ``[read(table, pk) for pk in pks]``
        — same footprint registration (scheme hooks included), same
        overlay visibility, same examined count — but with method
        lookups hoisted out of the loop and results preallocated.
        Returns ``(rows aligned with pks, examined)``; missing keys
        yield ``None`` in place.
        """
        self._begin_op()
        pks = list(pks)
        out: list[Row | None] = [None] * len(pks)
        writes = self._writes
        table_id = id(table)
        recmap = table.store.record_map()
        get_record = table.store.get if recmap is None else recmap.get
        register_read = self._register_read
        # Footprint registration inlined when the scheme uses the base
        # implementation (OCC/MVCC); locking schemes hook per-read lock
        # acquisition into _register_read and keep the dispatch.
        reads = self._reads \
            if type(self)._register_read is CCSession._register_read \
            else None
        if writes:
            for i, pk in enumerate(pks):
                intent = writes.get((table_id, pk))
                if intent is not None:
                    if intent.kind != DELETE:
                        out[i] = dict(intent.new_value or {})
                    continue
                record = get_record(pk)
                if record is None or record.deleted:
                    self._register_node(table)
                elif reads is not None:
                    if record not in reads:
                        reads[record] = record.tid
                    out[i] = dict(record.value)
                else:
                    register_read(record)
                    out[i] = dict(record.value)
        else:
            for i, pk in enumerate(pks):
                record = get_record(pk)
                if record is None or record.deleted:
                    self._register_node(table)
                elif reads is not None:
                    if record not in reads:
                        reads[record] = record.tid
                    out[i] = dict(record.value)
                else:
                    register_read(record)
                    out[i] = dict(record.value)
        return out, len(pks)

    def insert(self, table: Table, row: Mapping[str, Any]) -> int:
        """Buffer an insert; duplicate keys visible to this transaction
        raise immediately (concurrent duplicates surface at commit)."""
        self._begin_op()
        self._check_writable()
        validated = table.schema.validate_row(row)
        pk = table.schema.primary_key_of(validated)
        intent = self._intent_for(table, pk)
        if intent is not None:
            if intent.kind == DELETE:
                # delete + insert collapses to an update of the record.
                self._set_intent(WriteIntent(
                    UPDATE, table, pk, intent.record, validated))
                return 1
            raise DuplicateKeyError(
                f"duplicate key {pk!r} in {table.name!r} (own write)"
            )
        if table.get_record(pk) is not None:
            raise DuplicateKeyError(
                f"duplicate key {pk!r} in {table.name!r}"
            )
        self._set_intent(WriteIntent(INSERT, table, pk, None, validated))
        return 1

    def update(self, table: Table, pk: tuple,
               assignments: Mapping[str, Any]) -> tuple[Row, int]:
        """Read-modify-write one row; returns (new image, examined).

        The read is inlined (copy-free intent merging): the overlay or
        committed image is copied exactly once into the new intent
        instead of read() copying it and the merge copying it again.
        The footprint registered is identical to read-then-write.
        """
        self._begin_op()
        self._check_writable()
        table.schema.validate_assignments(assignments)
        intent = self._writes.get((id(table), pk))
        if intent is not None:
            if intent.kind == DELETE:
                raise RecordNotFound(
                    f"update of missing key {pk!r} in {table.name!r}"
                )
            # Merge into the existing insert/update intent.
            assert intent.new_value is not None
            new_value = dict(intent.new_value)
            new_value.update(assignments)
            self._set_intent(WriteIntent(
                intent.kind, table, pk, intent.record, new_value))
            return new_value, 1
        record = table.get_record(pk)
        if record is None:
            # Same phantom guard a read miss registers.
            self._register_node(table)
            raise RecordNotFound(
                f"update of missing key {pk!r} in {table.name!r}"
            )
        self._register_read(record)
        new_value = dict(record.value)
        new_value.update(assignments)
        self._set_intent(WriteIntent(
            UPDATE, table, pk, record, new_value))
        return new_value, 1

    def delete(self, table: Table, pk: tuple) -> int:
        """Buffer a delete; returns records examined."""
        self._begin_op()
        self._check_writable()
        intent = self._intent_for(table, pk)
        if intent is not None:
            if intent.kind == INSERT:
                self._drop_intent(table, pk)
                return 1
            if intent.kind == DELETE:
                raise RecordNotFound(
                    f"delete of missing key {pk!r} in {table.name!r}"
                )
            self._set_intent(WriteIntent(
                DELETE, table, pk, intent.record, None))
            return 1
        record = table.get_record(pk)
        if record is None:
            self._register_node(table)
            raise RecordNotFound(
                f"delete of missing key {pk!r} in {table.name!r}"
            )
        self._register_read(record)
        self._set_intent(WriteIntent(DELETE, table, pk, record, None))
        return 1

    def scan(self, table: Table, predicate: Predicate = ALWAYS,
             index: str | None = None, low: tuple | None = None,
             high: tuple | None = None, reverse: bool = False,
             limit: int | None = None) -> ScanResult:
        """Predicate/range scan with write-set overlay.

        Every candidate examined joins the read footprint (conservative
        predicate-read protection); the index or table structure is
        guarded against phantom inserts/deletes (version check for OCC,
        structure lock for 2PL).
        """
        self._begin_op()
        candidates, sort_keys, examined, out_order = \
            self._collect_candidates(table, predicate, index, low, high)
        writes = self._writes
        register_read = self._register_read
        matches = predicate.matches
        # Footprint registration inlined when the scheme uses the base
        # implementation (OCC/MVCC); locking schemes hook per-read lock
        # acquisition into _register_read and keep the dispatch.
        reads = self._reads \
            if type(self)._register_read is CCSession._register_read \
            else None
        if not writes and out_order is not None:
            # The result order is already known without computing a
            # per-row sort key: committed images agree with their
            # index entries, so an ordered-index range's (key, pk)
            # entry order IS the sort order, and a full scan's
            # pk-sorted candidates are theirs.  Candidate order — and
            # with it the read footprint's registration order — is
            # untouched.
            if out_order is _CANDIDATE_ORDER:
                out = []
                append = out.append
                for record in candidates:
                    if reads is not None:
                        if record not in reads:
                            reads[record] = record.tid
                    else:
                        register_read(record)
                    image = dict(record.value)
                    if matches(image):
                        append(image)
            else:
                images: dict[tuple, Row] = {}
                for record in candidates:
                    if reads is not None:
                        if record not in reads:
                            reads[record] = record.tid
                    else:
                        register_read(record)
                    image = dict(record.value)
                    if matches(image):
                        images[record.key] = image
                out = [images[pk] for pk in out_order if pk in images]
            if reverse:
                out.reverse()
            if limit is not None:
                out = out[:limit]
            return ScanResult(out, examined)
        rows: list[tuple[Any, Row]] = []
        table_id = id(table)
        if writes:
            for record in candidates:
                intent = writes.get((table_id, record.key))
                if intent is not None:
                    if intent.kind == DELETE:
                        continue
                    image: Row | None = dict(intent.new_value or {})
                else:
                    register_read(record)
                    image = dict(record.value)
                if image is not None and matches(image):
                    rows.append((sort_keys(image, record.key), image))
            # Own inserts join the result set.
            for intent in list(writes.values()):
                if intent.table is table and intent.kind == INSERT:
                    image = dict(intent.new_value or {})
                    if matches(image) and self._in_range(
                            table, index, image, low, high):
                        rows.append((sort_keys(image, intent.pk), image))
                        examined += 1
        else:
            for record in candidates:
                register_read(record)
                image = dict(record.value)
                if matches(image):
                    rows.append((sort_keys(image, record.key), image))
        rows.sort(key=lambda pair: pair[0], reverse=reverse)
        out = [row for __, row in rows]
        if limit is not None:
            out = out[:limit]
        return ScanResult(out, examined)

    def _collect_candidates(self, table: Table, predicate: Predicate,
                            index: str | None, low: tuple | None,
                            high: tuple | None):
        """Pick an access path; returns ``(records, sort_key_fn,
        examined, out_order)``.

        ``out_order`` is the precomputed result order for the
        no-writes fast path: :data:`_CANDIDATE_ORDER` when the
        candidates already arrive in result order (full scans are
        pk-sorted), a pk list in result order (ordered-index ranges:
        the (key, pk)-sorted entry walk), or ``None`` when only the
        per-row sort keys can decide (hash buckets are unordered)."""
        if index is not None:
            idx = table.index(index)
            self._register_node(idx)
            if isinstance(idx, OrderedIndex):
                pks = list(idx.range(low, high))
                out_order = pks
            else:
                require_hash_equality(index, low, high)
                # Exact-key candidates share one index key, so the
                # pk-sorted record walk is already the result order.
                pks = list(idx.lookup(low))
                out_order = _CANDIDATE_ORDER
            records = table.records_for_pks(pks)
            columns = idx.spec.columns

            def sort_key(image: Row, pk: tuple):
                return (tuple(image.get(c) for c in columns), pk)

            return records, sort_key, len(records), out_order

        bindings = predicate.equality_bindings()
        for idx in table.indexes.values():
            if isinstance(idx, HashIndex) and all(
                    c in bindings for c in idx.spec.columns):
                self._register_node(idx)
                key = tuple(bindings[c] for c in idx.spec.columns)
                records = table.records_for_pks(idx.lookup(key))
                return records, (lambda image, pk: pk), len(records), \
                    _CANDIDATE_ORDER

        self._register_node(table)
        records = list(table.iter_records())
        return records, (lambda image, pk: pk), len(records), \
            _CANDIDATE_ORDER

    @staticmethod
    def _in_range(table: Table, index: str | None, image: Row,
                  low: tuple | None, high: tuple | None) -> bool:
        """Does an own-insert fall inside an explicit index range?"""
        if index is None:
            return True
        idx = table.index(index)
        key = idx.key_of(image)
        if low is not None and key[: len(low)] < low:
            return False
        if high is not None and key[: len(high)] > high:
            return False
        return True

    # ------------------------------------------------------------------
    # Validation / installation hooks (driven by the manager)
    # ------------------------------------------------------------------

    def sorted_intents(self) -> list[WriteIntent]:
        """Write intents in deterministic global lock order.

        Memoized: validation locks and installation both walk this
        list, and commit runs them back-to-back on an unchanged write
        set.  Any write-set mutation invalidates the cache.
        """
        cached = self._sorted_intents
        if cached is None:
            cached = self._sorted_intents = sorted(
                self._writes.values(), key=_intent_order_key)
        return cached

    def read_entries(self) -> Iterable[tuple[VersionedRecord, int]]:
        return self._reads.items()

    def node_entries(self) -> Iterable[tuple[Any, int]]:
        return self._node_checks.values()

    def remember_lock(self, record: VersionedRecord) -> None:
        self._locked.append(record)

    def remember_placeholder(self, table: Table,
                             record: VersionedRecord) -> None:
        self._placeholders.append((table, record))

    def reclaim_placeholders(self) -> None:
        """Remove placeholders this session created that were never
        revived by a committed insert, so aborted (or cancelled)
        inserts don't permanently grow ``Table._records``.  A
        placeholder another transaction still holds a lock on is left
        in place — that transaction's install will revive it."""
        for table, record in self._placeholders:
            if not self._placeholder_in_use(record):
                table.discard_placeholder(record)
        self._placeholders.clear()

    def _placeholder_in_use(self, record: VersionedRecord) -> bool:
        """Does any *other* transaction still reference this
        placeholder?  (Called after this session released its locks.)"""
        return record.locked_by is not None

    def release_locks(self) -> None:
        for record in self._locked:
            record.unlock(self.txn_id)
        self._locked.clear()

    def max_observed_tid(self) -> int:
        best = max(self._reads.values(), default=0)
        for intent in self._writes.values():
            record = intent.record
            if record is not None and record.tid > best:
                best = record.tid
        return best


class ConcurrencyControl:
    """Per-container CC engine: validation, installation, TIDs.

    Subclasses implement :meth:`begin_session` and :meth:`validate`;
    installation and abort are scheme-independent (buffered intents are
    applied with the commit TID, redo-logged when durability is on, and
    the session's locks — whatever the scheme means by locks — are
    released through :meth:`CCSession.release_locks`).
    """

    #: Registry name of the scheme (set by subclasses).
    scheme = "abstract"

    __slots__ = ("container_id", "tids", "stats", "redo_log", "failed")

    def __init__(self, container_id: int, epochs: EpochManager) -> None:
        self.container_id = container_id
        self.tids = TidGenerator(epochs)
        self.stats = CCStats()
        #: Optional redo log (see repro.durability): when set, every
        #: installed write is logged with its commit TID.
        self.redo_log: Any = None
        #: Set when this manager's container failed (replication
        #: failover): sessions created here must abort at commit —
        #: their writes would land in dead storage.
        self.failed = False

    # -- protocol -------------------------------------------------------

    @staticmethod
    def is_snapshot_session(session: CCSession) -> bool:
        """Snapshot sessions validate nothing: every scheme's
        ``validate`` short-circuits them *before* counting a
        validation, so CC stats reflect only validated sessions."""
        return getattr(session, "snapshot_tid", None) is not None

    def begin_session(self, txn_id: int) -> CCSession:
        raise NotImplementedError

    def begin_snapshot_session(self, txn_id: int, snapshot_tid: int,
                               storage: Any = None) -> CCSession:
        """A snapshot-isolated read-only session pinned at
        ``snapshot_tid``.

        Available under every scheme — whether snapshot reads are
        *used* is the deployment's choice (``cc_scheme="mvocc"`` or
        the ``snapshot_reads`` toggle); the session takes no locks,
        validates nothing, and can never abort, so it composes with
        any writer protocol this manager runs.
        """
        from repro.concurrency.mvcc import SnapshotSession

        return SnapshotSession(txn_id, self.container_id, snapshot_tid,
                               storage=storage)

    def validate(self, session: CCSession) -> int:
        """Phase-1 validation; returns the TID floor for the commit TID.

        Raises a :class:`~repro.errors.CCAbort` subclass on conflict
        (after releasing any commit-time locks it took itself).
        """
        raise NotImplementedError

    def commit_cost(self, costs: Any, reads: int, writes: int) -> float:
        """Simulated CPU charged by the executor for the commit phase."""
        return (costs.occ_commit_base
                + costs.occ_validate_per_read * reads
                + costs.occ_install_per_write * writes)

    def install(self, session: CCSession, commit_tid: int) -> int:
        """Phase-2 write installation; returns number of writes."""
        count = 0
        install_intent = self._install_intent
        redo_log = self.redo_log
        if redo_log is None:
            for intent in session.sorted_intents():
                if install_intent(intent, commit_tid):
                    count += 1
        else:
            # Deferred: durability imports this module.
            from repro.durability.wal import RedoEntry

            log_entries = []
            for intent in session.sorted_intents():
                if not install_intent(intent, commit_tid):
                    continue
                count += 1
                new_value = intent.new_value
                log_entries.append(RedoEntry(
                    reactor=intent.table.owner or "",
                    table=intent.table.name,
                    kind=intent.kind,
                    pk=intent.pk,
                    row=dict(new_value) if new_value is not None
                    else None,
                ))
            if log_entries:
                redo_log.append(commit_tid, log_entries)
        session.release_locks()
        # Installed inserts revived their placeholders; any left over
        # belong to cancelled insert+delete pairs.
        session.reclaim_placeholders()
        session.finished = True
        self.tids.advance_to(commit_tid)
        return count

    def _install_intent(self, intent: WriteIntent,
                        commit_tid: int) -> bool:
        """Apply one buffered write; returns whether it was applied.

        Under a real scheme this can only succeed — validation/locking
        guarantees exclusivity — so failures propagate as bugs.
        """
        if intent.kind == INSERT:
            assert intent.new_value is not None
            intent.table.install_insert(intent.new_value, commit_tid)
        elif intent.kind == UPDATE:
            assert intent.record is not None
            assert intent.new_value is not None
            intent.table.install_update(
                intent.record, intent.new_value, commit_tid)
        else:
            assert intent.record is not None
            intent.table.install_delete(intent.record, commit_tid)
        return True

    def abort(self, session: CCSession,
              reason: str | None = "user") -> None:
        """Drop all buffered writes and release any held locks.

        ``reason`` attributes the abort in the stats: ``"user"`` and
        ``"dangerous_structure"`` are counted here; CC-initiated aborts
        (validation failures, lock conflicts, wounds) were already
        counted at their raise site and pass ``None``.
        """
        if reason == "user":
            self.stats.user_aborts += 1
        elif reason == "dangerous_structure":
            self.stats.dangerous_structure_aborts += 1
        session.release_locks()
        session.reclaim_placeholders()
        session.finished = True


class PassthroughCC(ConcurrencyControl):
    """The explicit no-concurrency-control scheme (``"none"``).

    Sessions still buffer writes (read-your-writes semantics and the
    abort path need the overlay) but nothing is validated and no locks
    are taken: concurrent conflicting transactions can produce
    non-serializable results (lost updates, broken invariants).
    Useful as the ablation baseline — contended runs violate
    application invariants, and overlapped interleavings fail the
    :mod:`repro.formal` audit.  (The audit records writes at buffering
    time, so without CC a sequentially-buffered lost update can still
    *record* as a serial history; state invariants are the reliable
    detector here, the audit a best-effort one.)
    """

    scheme = "none"

    __slots__ = ()

    def begin_session(self, txn_id: int) -> CCSession:
        return CCSession(txn_id, self.container_id)

    def validate(self, session: CCSession) -> int:
        if self.is_snapshot_session(session):
            return 0
        self.stats.validations += 1
        return 0

    def _install_intent(self, intent: WriteIntent,
                        commit_tid: int) -> bool:
        """Best-effort installation: with no validation or locks, two
        transactions can race to install conflicting writes (e.g. the
        same insert key); the loser's write is dropped rather than
        crashing the run — exactly the kind of anomaly the ablation
        exists to expose."""
        try:
            return super()._install_intent(intent, commit_tid)
        except ReactorError:
            return False


# ----------------------------------------------------------------------
# Scheme registry
# ----------------------------------------------------------------------

#: The deployment-selectable scheme names shipped with the system.
BUILTIN_CC_SCHEMES = ("occ", "mvocc", "2pl_nowait", "2pl_waitdie",
                      "none")

_SCHEME_FACTORIES: dict[
    str, Callable[[int, EpochManager], ConcurrencyControl]] = {}


def register_cc_scheme(name: str):
    """Class/function decorator adding a scheme factory under ``name``.

    The factory is called as ``factory(container_id, epochs)`` once per
    container at database build time.
    """
    def decorate(factory):
        _SCHEME_FACTORIES[name] = factory
        return factory
    return decorate


def _ensure_builtin_schemes() -> None:
    # Deferred: occ/locking/mvcc import this module for the base
    # classes.
    import repro.concurrency.locking  # noqa: F401
    import repro.concurrency.mvcc  # noqa: F401
    import repro.concurrency.occ  # noqa: F401


def cc_scheme_names() -> tuple[str, ...]:
    """All registered scheme names (built-ins plus extensions)."""
    _ensure_builtin_schemes()
    return tuple(sorted(_SCHEME_FACTORIES))


def create_cc_scheme(name: str, container_id: int,
                     epochs: EpochManager) -> ConcurrencyControl:
    """Instantiate the scheme ``name`` for one container."""
    _ensure_builtin_schemes()
    try:
        factory = _SCHEME_FACTORIES[name]
    except KeyError:
        raise DeploymentError(
            f"unknown cc_scheme {name!r}; registered schemes: "
            f"{', '.join(sorted(_SCHEME_FACTORIES))}"
        ) from None
    return factory(container_id, epochs)


register_cc_scheme("none")(
    lambda container_id, epochs: PassthroughCC(container_id, epochs))
