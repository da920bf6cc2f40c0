"""One reactor program, many container layouts, one committed state.

The paper's virtualization claim (Section 3.3): application code is
written against reactors only, so the same program runs unchanged on
shared-everything (with or without affinity) and shared-nothing
deployments of any size.  Interleavings legitimately differ between
layouts — only *committed outcomes* must agree — so these workloads
are built to have layout-independent final state: every logical
operation is driven to a committed conclusion (aborts are retried),
and concurrent writes are either commutative sums or
single-writer-per-key.  Every run must also pass the formal
certificates.
"""

from __future__ import annotations

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import (RangePlacement,
                                   shared_everything_with_affinity,
                                   shared_everything_without_affinity,
                                   shared_nothing)
from repro.durability.config import DurabilityConfig
from repro.formal.audit import attach_recorder, certify_all
from repro.workloads import smallbank as sb
from repro.workloads import ycsb

N_CUSTOMERS = 8
N_KEYS = 16
MAX_RETRIES = 200
#: Resubmit backoff per attempt, so a retried operation lets the
#: transaction that aborted it finish first.
RETRY_BACKOFF_US = 100.0

#: The reference layout every other layout is compared against.
REFERENCE = "shared-nothing-2"


def _layout(name, n_reactors, **kwargs):
    """The deployment called ``name`` for ``n_reactors`` reactors."""
    if name == "shared-everything-without-affinity":
        return shared_everything_without_affinity(2, **kwargs)
    if name == "shared-everything-with-affinity":
        return shared_everything_with_affinity(2, **kwargs)
    n_containers = int(name.rsplit("-", 1)[1])
    return shared_nothing(
        n_containers, mpl=4,
        placement=RangePlacement(n_reactors // n_containers), **kwargs)


OTHER_LAYOUTS = ["shared-nothing-1", "shared-nothing-4",
                 "shared-everything-with-affinity",
                 "shared-everything-without-affinity"]
SCHEMES = ["occ", "2pl_nowait", "mvocc"]


def _run_to_commit(database, ops):
    """Submit every ``(reactor, proc, args)`` op and drive each to a
    *committed* conclusion, resubmitting on abort.

    Retrying makes the committed-effect set identical on every layout
    and CC scheme: layouts may abort different transactions, but each
    logical operation lands exactly once either way.
    """
    pending = {"n": len(ops)}

    def make_on_done(op, tries=MAX_RETRIES):
        def on_done(root, committed, reason, result):
            if committed:
                pending["n"] -= 1
                return
            assert tries > 0, f"op {op} aborted too often: {reason}"
            reactor, proc, args = op
            attempt = MAX_RETRIES - tries + 1
            database.scheduler.after(
                RETRY_BACKOFF_US * attempt,
                lambda: database.submit(
                    reactor, proc, *args,
                    on_done=make_on_done(op, tries - 1)))
        return on_done

    for op in ops:
        reactor, proc, args = op
        database.submit(reactor, proc, *args,
                        on_done=make_on_done(op))
    database.scheduler.run()
    assert pending["n"] == 0, f"{pending['n']} ops never committed"


def _smallbank_ops():
    """A deterministic op list touching every customer: commutative
    per-account sums plus cross-reactor transfers, so the final
    balances are order-independent."""
    ops = []
    for i in range(48):
        cust = sb.reactor_name(i % N_CUSTOMERS)
        if i % 3 == 0:
            ops.append((cust, "transact_saving", (10.0 + i,)))
        elif i % 3 == 1:
            ops.append((cust, "deposit_checking", (5.0 + i,)))
        else:
            other = sb.reactor_name((i + 3) % N_CUSTOMERS)
            ops.append(sb.multi_transfer_spec(
                "fully-async", cust, [other], 2.0))
    return ops


def _smallbank_state(layout, scheme, durability=None):
    deployment = _layout(layout, N_CUSTOMERS, cc_scheme=scheme,
                         durability=durability)
    database = ReactorDatabase(deployment, sb.declarations(N_CUSTOMERS))
    sb.load(database, N_CUSTOMERS)
    attach_recorder(database)
    _run_to_commit(database, _smallbank_ops())
    state = {
        name: {
            table: sorted(
                (tuple(sorted(row.items()))
                 for row in database.table_rows(name, table)))
            for table in ("savings", "checking")
        }
        for name in database.reactor_names()
    }
    certificate = certify_all(database)
    total = sb.total_money(database, N_CUSTOMERS)
    return state, total, certificate


@pytest.mark.parametrize("layout", OTHER_LAYOUTS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_smallbank_state_matches_reference(scheme, layout):
    ref_state, ref_total, ref_cert = _smallbank_state(REFERENCE, scheme)
    state, total, cert = _smallbank_state(layout, scheme)
    assert ref_cert["ok"], ref_cert["failures"]
    assert cert["ok"], cert["failures"]
    assert total == pytest.approx(ref_total)
    assert state == ref_state


@pytest.mark.parametrize("layout",
                         [REFERENCE, "shared-everything-with-affinity"])
@pytest.mark.parametrize("mode", ["sync", "group", "async"])
def test_smallbank_durability_leaves_state_unchanged(mode, layout):
    """Logging changes when a commit is acknowledged, never what it
    commits: every durability mode reaches the non-durable state."""
    plain_state, __, __ = _smallbank_state(layout, "occ")
    state, __, cert = _smallbank_state(
        layout, "occ",
        durability=DurabilityConfig(enabled=True, mode=mode))
    assert cert["ok"], cert["failures"]
    assert state == plain_state


def _ycsb_state(layout, scheme):
    deployment = _layout(layout, N_KEYS, cc_scheme=scheme)
    decls = [(ycsb.key_name(i), ycsb.KEY_REACTOR)
             for i in range(N_KEYS)]
    database = ReactorDatabase(deployment, decls)
    for i in range(N_KEYS):
        name = ycsb.key_name(i)
        database.load(name, "kv",
                      [{"key": name, "value": "x" * ycsb.RECORD_SIZE}])
    attach_recorder(database)
    # Exactly one (prepending, hence order-sensitive) update per key:
    # single-writer-per-key keeps the final image layout-independent.
    # multi_update fans the second half out through sub-calls.
    ops = [(ycsb.key_name(i), "update_one", (f"d{i:03d}",))
           for i in range(N_KEYS // 2)]
    ops.append((ycsb.key_name(0), "multi_update",
                ([ycsb.key_name(i)
                  for i in range(N_KEYS // 2, N_KEYS)], "bulk")))
    _run_to_commit(database, ops)
    state = {ycsb.key_name(i):
             database.table_rows(ycsb.key_name(i), "kv")
             for i in range(N_KEYS)}
    return state, certify_all(database)


@pytest.mark.parametrize("layout", OTHER_LAYOUTS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_ycsb_state_matches_reference(scheme, layout):
    ref_state, ref_cert = _ycsb_state(REFERENCE, scheme)
    state, cert = _ycsb_state(layout, scheme)
    assert ref_cert["ok"], ref_cert["failures"]
    assert cert["ok"], cert["failures"]
    assert state == ref_state
    # And the updates actually landed: every first-half key carries
    # its delta, every second-half key the bulk prefix.
    assert state[ycsb.key_name(1)][0]["value"].startswith("d001")
    assert state[ycsb.key_name(N_KEYS - 1)][0]["value"] \
        .startswith("bulk")
