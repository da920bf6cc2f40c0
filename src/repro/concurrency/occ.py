"""Silo-style optimistic concurrency control (the ``"occ"`` scheme).

ReactDB reuses Silo's OCC scheme (paper Section 3.2): transactions read
committed record versions without locking, buffer writes locally, and
validate at commit.  Validation locks the write set, re-checks every
read-set TID, and conservatively re-checks index structure versions for
scans (phantom protection).  On success, writes are installed with a
commit TID greater than every TID observed.

The buffered record-manager machinery (read-your-writes overlay, scan
paths, write intents) lives in :class:`repro.concurrency.base.CCSession`
and is shared with the other schemes; :class:`OCCSession` layers the
optimistic read/node-version footprint on top and
:class:`ConcurrencyManager` owns validation and installation.
"""

from __future__ import annotations

from repro.errors import ValidationAbort
from repro.concurrency.base import (
    CCSession,
    ConcurrencyControl,
    INSERT,
    Row,
    ScanResult,
    WriteIntent,
    register_cc_scheme,
)

__all__ = [
    "ConcurrencyManager",
    "OCCSession",
    "Row",
    "ScanResult",
    "WriteIntent",
]


class OCCSession(CCSession):
    """Read/write sets of one root transaction within one container.

    The base class already records the optimistic footprint (record
    TIDs at first read, structure versions at scan / read-miss); OCC
    needs no per-operation work beyond that, so the session is the base
    behaviour unchanged — validation interprets the footprint.
    """

    __slots__ = ()


@register_cc_scheme("occ")
class ConcurrencyManager(ConcurrencyControl):
    """Per-container OCC engine: validation, installation, TIDs."""

    scheme = "occ"

    __slots__ = ()

    def begin_session(self, txn_id: int) -> OCCSession:
        return OCCSession(txn_id, self.container_id)

    def validate(self, session: CCSession) -> int:
        """Phase-1 validation; locks the write set.

        Returns the TID floor for the commit TID.  Raises
        :class:`ValidationAbort` (after releasing locks) on conflict.
        """
        if self.is_snapshot_session(session):
            return 0
        self.stats.validations += 1
        try:
            for intent in session.sorted_intents():
                self._lock_intent(session, intent)
            txn_id = session.txn_id
            for record, tid_seen in session.read_entries():
                if record.tid != tid_seen:
                    raise ValidationAbort(
                        f"stale read of {record.key!r} in txn "
                        f"{session.txn_id}"
                    )
                locker = record.locked_by
                if locker is not None and locker != txn_id:
                    raise ValidationAbort(
                        f"read of {record.key!r} locked by concurrent "
                        f"committer"
                    )
            for node, version_seen in session.node_entries():
                if node.structure_version != version_seen:
                    raise ValidationAbort(
                        "phantom: index/table structure changed under a "
                        f"scan of txn {session.txn_id}"
                    )
        except ValidationAbort:
            self.stats.validation_failures += 1
            session.release_locks()
            raise
        return session.max_observed_tid()

    def _lock_intent(self, session: CCSession,
                     intent: WriteIntent) -> None:
        if intent.kind == INSERT:
            live = intent.table.get_record(intent.pk)
            if live is not None:
                raise ValidationAbort(
                    f"concurrent insert won for key {intent.pk!r} in "
                    f"{intent.table.name!r}"
                )
            placeholder = intent.table.ensure_placeholder(intent.pk)
            session.remember_placeholder(intent.table, placeholder)
            if not placeholder.lock(session.txn_id):
                raise ValidationAbort(
                    f"insert placeholder {intent.pk!r} locked by "
                    "concurrent committer"
                )
            session.remember_lock(placeholder)
            intent.record = placeholder
        else:
            record = intent.record
            assert record is not None
            if not record.lock(session.txn_id):
                raise ValidationAbort(
                    f"write lock on {record.key!r} held by concurrent "
                    "committer"
                )
            session.remember_lock(record)
