"""Seeded pins of the commit path, and multi-key vs scalar reads.

The commit path (validation and installation in
:class:`~repro.concurrency.coordinator.TwoPhaseCommit`, then the
commit-acknowledgement stages of :mod:`repro.runtime.ack`) is
deterministic under a seed, and refactoring it must not move what a
seeded run observes.  These tests pin digests of:

* one contended SmallBank history per registered cc scheme — every
  commit/abort outcome and commit TID, the redo logs, the CC stats,
  the recorded operation stream, the virtual end time and the money
  total — plus the number of scheduler events it dispatched;
* the Chrome export of ``tools/trace_export.py`` under group
  durability, group durability with sync replication, and
  ``2pl_nowait``.

A digest that moves means the seeded behaviour changed: find out why
before re-pinning it.  The second half checks that vectorized
``multi_read`` (``ctx.multi_lookup``) sees exactly what scalar reads
see.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.concurrency.base import BUILTIN_CC_SCHEMES
from repro.concurrency.mvcc import SnapshotSession
from repro.concurrency.occ import ConcurrencyManager
from repro.concurrency.tid import EpochManager
from repro.core.database import ReactorDatabase
from repro.core.deployment import shared_nothing
from repro.durability.recovery import enable_durability
from repro.formal.audit import attach_recorder
from repro.relational.schema import float_col, int_col, make_schema
from repro.relational.table import Table
from repro.workloads import smallbank as sb

N = 8

#: scheme -> (sha256 of the observed history, scheduler events).
PINNED_HISTORIES = {
    "occ": ("bc6d4d0c056e64b621fce6e9c3919346"
            "fdb0e75cc276ad93a9d3bc368693ac0b", 594),
    "mvocc": ("993ad69855c4a69b95c6fdd7a09112eb"
              "47e671f4a8c6b844bf35d8346ac17eaa", 595),
    "2pl_nowait": ("cfc77947435cc3db69c93715a0ee3879"
                   "4937eba551481494517c866535dd9374", 531),
    "2pl_waitdie": ("5f99e1a97824459365af87df43a39f22"
                    "5be6cfee46eb75c054bb8c48584da730", 530),
    "none": ("58fd79344c96153054337434709e8d55"
             "5d595a6f17e38cfe15c292a1e43de55d", 606),
}

#: trace_export.export_trace keyword arguments -> sha256 of the export.
PINNED_TRACES = {
    "group": ({}, "8ce0aae5a5ec6b919d62243de0621d3f"
                  "53ecdbabff77b244c37d3f7fb88bacee"),
    "group+sync-replication": (
        {"replication": "sync"},
        "10ab1f1286cfd936a70826d71d83777f"
        "7df252d38856df9bc75b29477bd77ec9"),
    "2pl_nowait": ({"scheme": "2pl_nowait"},
                   "a706a768561c037141ac5e464ee71436"
                   "78bb595182b0e06374dafbd7ba26a3ea"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _specs(n_txns: int = 60) -> list[tuple]:
    """Contended multi-transfers, deposits, and read-only balances."""
    rng = random.Random(99)
    specs: list[tuple] = []
    for i in range(n_txns):
        if i % 3 == 0:
            variant = sb.VARIANTS[i % len(sb.VARIANTS)]
            src = sb.reactor_name(rng.randrange(N))
            dsts = []
            while len(dsts) < 2:
                dst = sb.reactor_name(rng.randrange(N))
                if dst != src and dst not in dsts:
                    dsts.append(dst)
            specs.append(sb.multi_transfer_spec(variant, src, dsts, 1.0))
        elif i % 3 == 1:
            specs.append((sb.reactor_name(rng.randrange(N)),
                          "deposit_checking", (1.0,)))
        else:
            specs.append((sb.reactor_name(rng.randrange(N)),
                          "balance", ()))
    return specs


def _run(scheme: str) -> dict:
    """One seeded SmallBank run; returns everything observable."""
    database = ReactorDatabase(
        shared_nothing(4, mpl=4, cc_scheme=scheme),
        sb.declarations(N))
    sb.load(database, N)
    enable_durability(database)  # async: attaches redo logs only
    recorder = attach_recorder(database)

    specs = _specs()
    results: list[tuple] = [None] * len(specs)

    def make_on_done(index: int):
        def on_done(root, committed, reason, result):
            results[index] = (committed, reason, root.commit_tid)
        return on_done

    for index, (reactor, proc, args) in enumerate(specs):
        database.submit(reactor, proc, *args,
                        on_done=make_on_done(index))
    database.scheduler.run()

    return {
        "results": results,
        "end_time": database.scheduler.now,
        "redo": [c.concurrency.redo_log.dump_json_lines()
                 for c in database.containers],
        "cc_stats": [asdict(c.concurrency.stats)
                     for c in database.containers],
        "events": list(recorder.history.events),
        "serializable": recorder.is_serializable(),
        "money": sb.total_money(database, N),
        "dispatched": database.scheduler.events_dispatched,
    }


@pytest.mark.parametrize("scheme", BUILTIN_CC_SCHEMES)
def test_seeded_history_is_pinned(scheme):
    observed = _run(scheme)
    if scheme != "none":
        assert observed["serializable"]
    assert (_sha256(repr(observed)), observed["dispatched"]) == \
        PINNED_HISTORIES[scheme]


def _load_trace_export():
    path = Path(__file__).parent.parent / "tools" / "trace_export.py"
    spec = importlib.util.spec_from_file_location("trace_export", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("config", sorted(PINNED_TRACES))
def test_seeded_trace_export_is_pinned(config):
    kwargs, digest = PINNED_TRACES[config]
    text = _load_trace_export().export_trace(**kwargs)
    assert _sha256(text) == digest


# ----------------------------------------------------------------------
# multi_read vs scalar reads on the session surface
# ----------------------------------------------------------------------


def _table(rows: int = 12) -> Table:
    schema = make_schema("t", [int_col("id"), float_col("v")], ["id"])
    table = Table(schema)
    for i in range(rows):
        table.load_row({"id": i, "v": float(i)})
    return table


class TestMultiReadEquivalence:
    def test_matches_scalar_reads_including_overlay(self):
        table = _table()
        manager = ConcurrencyManager(0, EpochManager())
        pks = [(1,), (99,), (3,), (4,), (100,), (0,)]

        scalar = manager.begin_session(1)
        scalar.update(table, (3,), {"v": 33.0})
        scalar.delete(table, (4,))
        scalar.insert(table, {"id": 100, "v": 50.0})
        scalar_rows = [scalar.read(table, pk)[0] for pk in pks]

        vector = manager.begin_session(2)
        vector.update(table, (3,), {"v": 33.0})
        vector.delete(table, (4,))
        vector.insert(table, {"id": 100, "v": 50.0})
        vector_rows, examined = vector.multi_read(table, pks)

        assert vector_rows == scalar_rows
        assert examined == len(pks)
        # Identical validation footprint: same observed records, same
        # node checks for the misses.
        assert set(vector._reads) == set(scalar._reads)
        assert vector._node_checks.keys() == scalar._node_checks.keys()

    def test_footprint_validates_like_scalar_reads(self):
        table = _table()
        manager = ConcurrencyManager(0, EpochManager())
        session = manager.begin_session(1)
        rows, __ = session.multi_read(table, [(0,), (1,), (2,)])
        assert [r["v"] for r in rows] == [0.0, 1.0, 2.0]

        # A conflicting install invalidates the batched read set just
        # as it would invalidate scalar reads.
        writer = manager.begin_session(2)
        writer.update(table, (1,), {"v": 9.0})
        floor = manager.validate(writer)
        manager.install(writer, manager.tids.next_tid(1.0,
                                                      at_least=floor))

        from repro.errors import CCAbort
        with pytest.raises(CCAbort):
            manager.validate(session)

    def test_snapshot_session_matches_scalar_reads(self):
        table = _table()
        manager = ConcurrencyManager(0, EpochManager())
        writer = manager.begin_session(1)
        writer.update(table, (2,), {"v": 77.0})
        floor = manager.validate(writer)
        tid = manager.tids.next_tid(1.0, at_least=floor)
        manager.install(writer, tid)

        pks = [(0,), (2,), (99,)]
        scalar = SnapshotSession(10, 0, snapshot_tid=tid)
        scalar_rows = [scalar.read(table, pk)[0] for pk in pks]

        vector = SnapshotSession(11, 0, snapshot_tid=tid)
        vector_rows, examined = vector.multi_read(table, pks)

        assert vector_rows == scalar_rows
        assert vector_rows[1]["v"] == 77.0
        assert examined == len(pks)
        assert vector.snapshot_read_count == scalar.snapshot_read_count

    def test_stale_snapshot_ignores_newer_versions_batched(self):
        from repro.storage.store import StorageCoordinator

        table = _table()
        manager = ConcurrencyManager(0, EpochManager())
        old_tid = manager.tids.next_tid(1.0)
        # Pin the old snapshot so the install retains the superseded
        # version instead of GC-ing it.
        coordinator = StorageCoordinator()
        table.versioning = coordinator
        coordinator.pin(12, old_tid)

        writer = manager.begin_session(1)
        writer.update(table, (2,), {"v": 77.0})
        floor = manager.validate(writer)
        manager.install(writer, manager.tids.next_tid(2.0,
                                                      at_least=floor))

        stale = SnapshotSession(12, 0, snapshot_tid=old_tid)
        rows, __ = stale.multi_read(table, [(2,)])
        assert rows[0]["v"] == 2.0
