"""Silo-style OCC: read-your-writes, validation, phantoms, 2PC."""

import pytest

from repro.concurrency.base import PassthroughCC
from repro.concurrency.coordinator import TwoPhaseCommit
from repro.concurrency.occ import ConcurrencyManager
from repro.concurrency.tid import EpochManager
from repro.errors import DuplicateKeyError, RecordNotFound
from repro.relational.predicate import col
from repro.relational.schema import (
    IndexSpec,
    float_col,
    int_col,
    make_schema,
)
from repro.relational.table import Table


@pytest.fixture
def table():
    schema = make_schema(
        "t", [int_col("id"), float_col("v")], ["id"],
        [IndexSpec("by_v", ("v",), ordered=True)])
    table = Table(schema)
    for i in range(5):
        table.load_row({"id": i, "v": float(i)})
    return table


@pytest.fixture
def manager():
    return ConcurrencyManager(0, EpochManager())


def commit(manager, session, now=1.0):
    return TwoPhaseCommit([(manager, session)]).commit(now)


class TestReadYourWrites:
    def test_read_sees_own_update(self, table, manager):
        s = manager.begin_session(1)
        s.update(table, (1,), {"v": 99.0})
        row, __ = s.read(table, (1,))
        assert row["v"] == 99.0
        assert table.get_record((1,)).value["v"] == 1.0  # not yet

    def test_read_sees_own_insert(self, table, manager):
        s = manager.begin_session(1)
        s.insert(table, {"id": 100, "v": 1.0})
        row, __ = s.read(table, (100,))
        assert row["v"] == 1.0

    def test_read_sees_own_delete(self, table, manager):
        s = manager.begin_session(1)
        s.delete(table, (1,))
        row, __ = s.read(table, (1,))
        assert row is None

    def test_scan_applies_overlay(self, table, manager):
        s = manager.begin_session(1)
        s.update(table, (1,), {"v": 99.0})
        s.delete(table, (2,))
        s.insert(table, {"id": 100, "v": 50.0})
        rows = s.scan(table, col("v") > 10.0).rows
        values = sorted(r["v"] for r in rows)
        assert values == [50.0, 99.0]

    def test_insert_then_delete_cancels(self, table, manager):
        s = manager.begin_session(1)
        s.insert(table, {"id": 100, "v": 1.0})
        s.delete(table, (100,))
        assert s.read(table, (100,))[0] is None
        assert s.write_count == 0

    def test_delete_then_insert_becomes_update(self, table, manager):
        s = manager.begin_session(1)
        s.delete(table, (1,))
        s.insert(table, {"id": 1, "v": 42.0})
        outcome = commit(manager, s)
        assert outcome.committed
        assert table.get_record((1,)).value["v"] == 42.0

    def test_duplicate_insert_detected_early(self, table, manager):
        s = manager.begin_session(1)
        with pytest.raises(DuplicateKeyError):
            s.insert(table, {"id": 1, "v": 0.0})

    def test_update_missing_raises(self, table, manager):
        s = manager.begin_session(1)
        with pytest.raises(RecordNotFound):
            s.update(table, (999,), {"v": 0.0})

    def test_delete_missing_raises(self, table, manager):
        s = manager.begin_session(1)
        with pytest.raises(RecordNotFound):
            s.delete(table, (999,))


class TestValidation:
    def test_stale_read_aborts(self, table, manager):
        s1 = manager.begin_session(1)
        s1.read(table, (1,))
        s1.update(table, (1,), {"v": 10.0})
        s2 = manager.begin_session(2)
        s2.update(table, (1,), {"v": 20.0})
        assert commit(manager, s2).committed
        outcome = commit(manager, s1)
        assert not outcome.committed
        assert table.get_record((1,)).value["v"] == 20.0

    def test_read_only_vs_disjoint_write_both_commit(self, table,
                                                     manager):
        s1 = manager.begin_session(1)
        s1.read(table, (1,))
        s2 = manager.begin_session(2)
        s2.update(table, (2,), {"v": 20.0})
        assert commit(manager, s2).committed
        assert commit(manager, s1).committed

    def test_write_write_second_aborts(self, table, manager):
        s1 = manager.begin_session(1)
        s1.update(table, (1,), {"v": 10.0})
        s2 = manager.begin_session(2)
        s2.update(table, (1,), {"v": 20.0})
        assert commit(manager, s1).committed
        assert not commit(manager, s2).committed

    def test_concurrent_inserts_same_key(self, table, manager):
        s1 = manager.begin_session(1)
        s1.insert(table, {"id": 100, "v": 1.0})
        s2 = manager.begin_session(2)
        s2.insert(table, {"id": 100, "v": 2.0})
        assert commit(manager, s1).committed
        assert not commit(manager, s2).committed
        assert table.get_record((100,)).value["v"] == 1.0

    def test_phantom_insert_aborts_scan(self, table, manager):
        s1 = manager.begin_session(1)
        s1.scan(table, col("v") >= 0.0)
        s2 = manager.begin_session(2)
        s2.insert(table, {"id": 100, "v": 100.0})
        assert commit(manager, s2).committed
        assert not commit(manager, s1).committed

    def test_read_miss_guards_against_insert(self, table, manager):
        s1 = manager.begin_session(1)
        assert s1.read(table, (100,))[0] is None
        s1.update(table, (0,), {"v": 5.0})
        s2 = manager.begin_session(2)
        s2.insert(table, {"id": 100, "v": 1.0})
        assert commit(manager, s2).committed
        assert not commit(manager, s1).committed

    def test_scan_update_conflict_detected(self, table, manager):
        # An update that changes whether a row matches a predicate
        # must invalidate a concurrent scan (conservative read-set
        # registration of all examined candidates).
        s1 = manager.begin_session(1)
        s1.scan(table, col("v") > 100.0)  # matches nothing, examines all
        s1.update(table, (0,), {"v": -1.0})
        s2 = manager.begin_session(2)
        s2.update(table, (3,), {"v": 500.0})
        assert commit(manager, s2).committed
        assert not commit(manager, s1).committed

    def test_validation_failure_releases_locks(self, table, manager):
        s1 = manager.begin_session(1)
        s1.read(table, (1,))
        s1.update(table, (1,), {"v": 10.0})
        s2 = manager.begin_session(2)
        s2.update(table, (1,), {"v": 20.0})
        assert commit(manager, s2).committed
        assert not commit(manager, s1).committed
        record = table.get_record((1,))
        assert record.locked_by is None

    def test_commit_tids_monotonic(self, table, manager):
        tids = []
        for i in range(3):
            s = manager.begin_session(i)
            s.update(table, (1,), {"v": float(i)})
            outcome = commit(manager, s, now=float(i + 1))
            tids.append(outcome.commit_tid)
        assert tids == sorted(tids)
        assert len(set(tids)) == 3

    def test_commit_tid_exceeds_read_versions(self, table, manager):
        s1 = manager.begin_session(1)
        s1.update(table, (1,), {"v": 5.0})
        out1 = commit(manager, s1)
        s2 = manager.begin_session(2)
        s2.read(table, (1,))
        s2.update(table, (2,), {"v": 6.0})
        out2 = commit(manager, s2)
        assert out2.commit_tid > out1.commit_tid

    def test_passthrough_cc_skips_validation(self, table):
        manager = PassthroughCC(0, EpochManager())
        s1 = manager.begin_session(1)
        s1.read(table, (1,))
        s1.update(table, (1,), {"v": 10.0})
        s2 = manager.begin_session(2)
        s2.update(table, (1,), {"v": 20.0})
        assert commit(manager, s2).committed
        assert commit(manager, s1).committed  # no validation


class TestTwoPhaseCommit:
    def test_multi_container_atomic_abort(self, manager):
        schema = make_schema("t", [int_col("id"), float_col("v")],
                             ["id"])
        t0, t1 = Table(schema), Table(schema)
        t0.load_row({"id": 1, "v": 1.0})
        t1.load_row({"id": 1, "v": 1.0})
        m0 = ConcurrencyManager(0, EpochManager())
        m1 = ConcurrencyManager(1, EpochManager())

        s_multi0 = m0.begin_session(1)
        s_multi1 = m1.begin_session(1)
        s_multi0.update(t0, (1,), {"v": 10.0})
        s_multi1.update(t1, (1,), {"v": 10.0})

        # A competing single-container commit invalidates container 1.
        s_other = m1.begin_session(2)
        s_other.update(t1, (1,), {"v": 99.0})
        assert TwoPhaseCommit([(m1, s_other)]).commit(1.0).committed

        outcome = TwoPhaseCommit(
            [(m0, s_multi0), (m1, s_multi1)]).commit(2.0)
        assert not outcome.committed
        # Atomicity: neither container applied the multi-write.
        assert t0.get_record((1,)).value["v"] == 1.0
        assert t1.get_record((1,)).value["v"] == 99.0

    def test_multi_container_commit_applies_everywhere(self):
        schema = make_schema("t", [int_col("id"), float_col("v")],
                             ["id"])
        t0, t1 = Table(schema), Table(schema)
        t0.load_row({"id": 1, "v": 1.0})
        t1.load_row({"id": 1, "v": 1.0})
        m0 = ConcurrencyManager(0, EpochManager())
        m1 = ConcurrencyManager(1, EpochManager())
        s0, s1 = m0.begin_session(1), m1.begin_session(1)
        s0.update(t0, (1,), {"v": 7.0})
        s1.update(t1, (1,), {"v": 8.0})
        outcome = TwoPhaseCommit([(m0, s0), (m1, s1)]).commit(1.0)
        assert outcome.committed
        assert outcome.containers == 2
        assert t0.get_record((1,)).value["v"] == 7.0
        assert t1.get_record((1,)).value["v"] == 8.0

    def test_explicit_abort_discards_writes(self, table, manager):
        s = manager.begin_session(1)
        s.update(table, (1,), {"v": 10.0})
        TwoPhaseCommit([(manager, s)]).abort()
        assert table.get_record((1,)).value["v"] == 1.0

    def test_needs_participants(self):
        with pytest.raises(ValueError):
            TwoPhaseCommit([])

    def test_validation_stats_counted(self, table, manager):
        s1 = manager.begin_session(1)
        s1.read(table, (1,))
        s1.update(table, (1,), {"v": 1.5})
        s2 = manager.begin_session(2)
        s2.update(table, (1,), {"v": 2.5})
        commit(manager, s2)
        commit(manager, s1)
        assert manager.stats.validations == 2
        assert manager.stats.validation_failures == 1
