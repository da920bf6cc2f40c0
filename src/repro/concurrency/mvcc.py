"""Multi-version concurrency: snapshot sessions and the ``"mvocc"``
scheme.

The multi-version storage engine (:mod:`repro.storage`) retains
superseded record versions while snapshot readers are in flight.  This
module adds the read side:

* :class:`SnapshotSession` — the record manager of one *read-only*
  root transaction within one container, pinned at a begin snapshot
  TID.  Reads resolve through the version chains
  (:meth:`~repro.storage.record.VersionedRecord.version_at`), take no
  locks, register no read/node footprint, and therefore validate
  nothing and can never abort; any mutation raises the typed
  :class:`~repro.errors.ReadOnlyViolation`.  Scans iterate the full
  record map (including tombstones — a key deleted after the snapshot
  is still visible to it) and apply index-range semantics over the
  visible images, so they need no versioned index structures.

* :class:`MVConcurrencyManager` — the ``"mvocc"`` scheme: writers run
  the unmodified Silo-OCC protocol (they install new versions instead
  of overwriting, courtesy of the storage engine), while read-only
  roots always get snapshot sessions.  The same snapshot machinery is
  available under *any* scheme through the deployment's
  ``snapshot_reads`` toggle — 2PL writers with snapshot readers is a
  perfectly sound combination because readers touch no locks.

Snapshot sessions participate in the generic commit path (2PC calls
``validate``/``install`` on them like on any session) but their empty
footprint makes both a no-op; the executor additionally prices their
commit with a zero validation walk
(:attr:`SnapshotSession.validation_read_count`).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.concurrency.base import (
    CCSession,
    ScanResult,
    register_cc_scheme,
    require_hash_equality,
)
from repro.concurrency.occ import ConcurrencyManager
from repro.errors import ReadOnlyViolation
from repro.relational.index import OrderedIndex
from repro.relational.predicate import ALWAYS, Predicate
from repro.relational.table import Table

__all__ = ["MVConcurrencyManager", "SnapshotSession"]


class SnapshotSession(CCSession):
    """Read-only record manager pinned at a begin-TID snapshot."""

    __slots__ = ("snapshot_tid", "storage", "snapshot_read_count")

    def __init__(self, txn_id: int, container_id: int,
                 snapshot_tid: int, storage: Any = None) -> None:
        super().__init__(txn_id, container_id)
        #: Every read resolves to the newest version with
        #: ``tid <= snapshot_tid``.
        self.snapshot_tid = snapshot_tid
        #: The database's StorageCoordinator (counters + audit log);
        #: ``None`` for manually driven sessions.
        self.storage = storage
        #: Reads served from this snapshot (stats only).
        self.snapshot_read_count = 0

    # -- commit-path integration ----------------------------------------

    @property
    def read_count(self) -> int:
        return self.snapshot_read_count

    @property
    def validation_read_count(self) -> int:
        # Nothing is re-checked at commit: snapshot reads are final
        # the moment they resolve.
        return 0

    # -- bookkeeping ----------------------------------------------------

    def _note(self, table: Table, pk: tuple, image: Any,
              observed_tid: int) -> None:
        self.snapshot_read_count += 1
        if self.storage is not None:
            self.storage.note_snapshot_read(
                self.txn_id, self.snapshot_tid, table.owner or "",
                table.name, pk, observed_tid, image is None)

    # -- the read-only record manager surface ---------------------------

    def read(self, table: Table, pk: tuple):
        """Point read at the pinned snapshot; never locks, never
        registers a footprint.  Visibility is the storage layer's one
        rule (:meth:`repro.relational.table.Table.version_at`)."""
        self._begin_op()
        image, observed_tid = table.version_at(pk, self.snapshot_tid)
        self._note(table, pk, image, observed_tid)
        return image, 1

    def multi_read(self, table: Table, pks):
        """Vectorized snapshot point reads: one chain walk per key,
        method lookups hoisted, results preallocated.  Equivalent to
        ``[read(table, pk) for pk in pks]`` — including one
        :meth:`_note` audit event per key, in key order."""
        self._begin_op()
        pks = list(pks)
        out: list[Any] = [None] * len(pks)
        snapshot_tid = self.snapshot_tid
        note = self._note
        recmap = table.store.record_map()
        if recmap is not None:
            get = recmap.get
            for i, pk in enumerate(pks):
                record = get(pk)
                if record is None:
                    image, observed_tid = None, 0
                else:
                    image, observed_tid = record.version_at(snapshot_tid)
                note(table, pk, image, observed_tid)
                out[i] = image
        else:
            version_at = table.store.version_at
            for i, pk in enumerate(pks):
                image, observed_tid = version_at(pk, snapshot_tid)
                note(table, pk, image, observed_tid)
                out[i] = image
        return out, len(pks)

    def scan(self, table: Table, predicate: Predicate = ALWAYS,
             index: str | None = None, low: tuple | None = None,
             high: tuple | None = None, reverse: bool = False,
             limit: int | None = None) -> ScanResult:
        """Predicate/range scan over the snapshot's visible images.

        Indexed scans examine the index's *current* candidates plus
        the records still retaining chain versions — the only ones
        whose snapshot-visible image can differ from their live head
        (deleted or re-keyed after the snapshot) — so the work stays
        proportional to the match set plus the GC-bounded history, not
        the table.  Bounds and predicate apply to the *visible* image,
        and hash indexes keep the validated sessions' contract —
        equality only (``low == high``) — so a procedure behaves
        identically whichever session serves it.  Full scans iterate
        everything, tombstones included.
        """
        self._begin_op()
        idx = table.index(index) if index is not None else None
        hash_equality = idx is not None and not isinstance(
            idx, OrderedIndex)
        if hash_equality:
            require_hash_equality(index, low, high)
        if idx is not None:
            pks = idx.lookup(low) if hash_equality \
                else idx.range(low, high)
            candidates = self._with_chained(table, pks)
        else:
            pks = self._equality_probe(table, predicate)
            candidates = table.all_records() if pks is None \
                else self._with_chained(table, pks)
        rows: list[tuple[Any, dict]] = []
        examined = 0
        snapshot_tid = self.snapshot_tid
        matches = predicate.matches
        note = self._note
        key_of = idx.key_of if idx is not None else None
        for record in candidates:
            examined += 1
            image, observed_tid = record.version_at(snapshot_tid)
            if image is None or not matches(image):
                continue
            if key_of is not None:
                key = key_of(image)
                if hash_equality:
                    # Exact-key match, like the validated path's
                    # idx.lookup(low).
                    if key != low:
                        continue
                else:
                    # The validated path's range rule (_in_range),
                    # checked inline on the key already computed —
                    # _in_range would re-resolve the index per row.
                    if low is not None and key[:len(low)] < low:
                        continue
                    if high is not None and key[:len(high)] > high:
                        continue
                sort_key: Any = (key, record.key)
            else:
                sort_key = record.key
            note(table, record.key, image, observed_tid)
            rows.append((sort_key, image))
        rows.sort(key=lambda pair: pair[0], reverse=reverse)
        out = [row for __, row in rows]
        if limit is not None:
            out = out[:limit]
        return ScanResult(out, examined)

    @staticmethod
    def _with_chained(table: Table, pks):
        """Scan candidates: the given current-index matches plus every
        record still retaining chain versions (the only ones whose
        snapshot image can differ from — or outlive — its head)."""
        picked: dict[tuple, Any] = {}
        peek = table.store.peek
        for pk in pks:
            record = peek(pk)
            if record is not None:
                picked[pk] = record
        for record in table.store.iter_chained():
            picked.setdefault(record.key, record)
        return picked.values()

    @staticmethod
    def _equality_probe(table: Table, predicate: Predicate):
        """The validated path's equality-bindings fast path (see
        :meth:`CCSession._collect_candidates`): candidate pks from a
        hash index fully bound by the predicate, or ``None`` when no
        index applies (full scan)."""
        bindings = predicate.equality_bindings()
        for idx in table.indexes.values():
            if not isinstance(idx, OrderedIndex) and all(
                    column in bindings for column in idx.spec.columns):
                key = tuple(bindings[column]
                            for column in idx.spec.columns)
                return idx.lookup(key)
        return None

    # -- mutations: uniformly refused -----------------------------------

    def _refuse_write(self, op: str, table: Table) -> None:
        raise ReadOnlyViolation(
            f"snapshot transaction {self.txn_id} attempted {op} on "
            f"{table.name!r}"
        )

    def insert(self, table: Table, row: Mapping[str, Any]) -> int:
        self._refuse_write("insert", table)
        raise AssertionError("unreachable")

    def update(self, table: Table, pk: tuple,
               assignments: Mapping[str, Any]):
        self._refuse_write("update", table)
        raise AssertionError("unreachable")

    def delete(self, table: Table, pk: tuple) -> int:
        self._refuse_write("delete", table)
        raise AssertionError("unreachable")


@register_cc_scheme("mvocc")
class MVConcurrencyManager(ConcurrencyManager):
    """The ``"mvocc"`` scheme: Silo-OCC writers, snapshot readers.

    Write transactions validate and install exactly as under ``"occ"``
    — the storage engine makes their installs version-preserving when
    snapshot readers are pinned.  Read-only roots are always served
    from snapshots (the deployment layer treats ``mvocc`` as implying
    ``snapshot_reads``), so they never validate, never lock, and never
    abort.
    """

    scheme = "mvocc"

    __slots__ = ()
