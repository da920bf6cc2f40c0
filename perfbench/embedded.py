"""One in-process pass: sb-embedded, tpcc-durable or sb-certify.

Run by ``run.py`` in a fresh process, so the peak resident set it
reports belongs to this workload alone::

    python3 perfbench/embedded.py WORKLOAD --seed N --rounds K
        [--setups R] [--trace] [--spans FILE]

The pass runs ``--setups`` segments, one after the other.  A segment
builds a fresh database (the previous one is freed first), drives it on
the sim backend for ``--rounds`` closed-loop rounds and certifies it:
sb-embedded certifies a window of a fixed number of history events,
recorded on the fresh database, once after every round; tpcc-durable
certifies the final database.  Every segment runs the same seeded
rounds, so every segment must do the same simulated work: a check of
the run.  Repeating whole segments spreads the builds, certifications
and repetitions of each round over the run; each timed sample carries
the machine-speed probe timed around it (``speed.py``).  For sb-certify
the drive of a segment is the recording of its fixed history.  The pass
checks its outputs and prints one JSON object as the last line of
standard output.  ``--trace`` installs the per-layer wrappers before
the first build and adds the ledger to the result.
"""

from __future__ import annotations

import argparse
import gc
import time

from common import OUT, WORKLOADS, emit, peak_rss_mb, use_program
from speed import probe, probe_seconds
from tracing import Tracer, no_window

perf = time.perf_counter

#: Virtual time bound of sb-certify's recording; the transaction cap
#: ends it long before.
HISTORY_WINDOW_US = 1e7


def capped(factory_for, total: int):
    """Factories that stop every worker once ``total`` transactions were
    issued among them, so the recorded history has a fixed size."""
    issued = [0]

    def capped_for(worker_id: int):
        factory = factory_for(worker_id)

        def next_txn(worker):
            if issued[0] >= total:
                return None
            issued[0] += 1
            return factory(worker)
        return next_txn
    return capped_for


def until_events(factory_for, recorder, events: int):
    """Factories that stop every worker once the recorder holds
    ``events`` history events.  Certification is quadratic in the
    history's committed operations, so a window of a fixed size costs
    the same whatever the seed; a window of fixed virtual time does
    not."""
    def capped_for(worker_id: int):
        factory = factory_for(worker_id)

        def next_txn(worker):
            if len(recorder.history.events) >= events:
                return None
            return factory(worker)
        return next_txn
    return capped_for


def record_window(database, cfg: dict, seed: int) -> tuple[object, dict]:
    """Record a seeded SmallBank window of ``cfg["audit_events"]``
    history events on ``database``; returns the recorder and the
    window's round."""
    from repro.formal import audit
    from repro.workloads import smallbank

    recorder = audit.attach_recorder(database)
    factory_for = smallbank.SmallbankWorkload(cfg["customers"]).factory_for
    recorded = run_round(database, cfg, until_events(
        factory_for, recorder, cfg["audit_events"]), HISTORY_WINDOW_US,
        seed)
    audit.detach_recorder(database)
    return recorder, recorded


def certify(database, recorder, reports: list, times: list,
            probes: list) -> None:
    """One timed ``certify_all``, between two machine-speed probes."""
    from repro.formal import audit

    before = probe()
    start = perf()
    reports.append(audit.certify_all(database, recorder))
    times.append(perf() - start)
    probes.append(probe_seconds(before, probe()))


def build(cfg: dict, seed: int):
    from repro.core.database import ReactorDatabase
    from repro.core.deployment import shared_nothing

    if cfg["benchmark"] == "tpcc":
        from repro.durability.config import DurabilityConfig
        from repro.replication.config import ReplicationConfig
        from repro.sim.machine import OPTERON_6274
        from repro.workloads import tpcc

        deployment = shared_nothing(
            cfg["warehouses"], machine=OPTERON_6274, mpl=cfg["mpl"],
            cc_scheme=cfg["cc"],
            durability=DurabilityConfig(enabled=True,
                                        mode=cfg["durability"]),
            replication=ReplicationConfig(
                replicas_per_container=cfg["replicas"],
                mode=cfg["replication"]))
        database = ReactorDatabase(deployment,
                                   tpcc.declarations(cfg["warehouses"]))
        tpcc.load(database, cfg["warehouses"], seed=seed)
        return database
    from repro.workloads import smallbank

    deployment = shared_nothing(cfg["containers"], mpl=cfg["mpl"],
                                cc_scheme=cfg["cc"])
    database = ReactorDatabase(deployment,
                               smallbank.declarations(cfg["customers"]))
    smallbank.load(database, cfg["customers"])
    return database


def factory_source(cfg: dict, seed: int, tracer):
    """``factory_for(worker_id)`` for the workload's transaction mix."""
    if cfg["benchmark"] == "tpcc":
        from repro.workloads import tpcc

        workload = tpcc.TpccWorkload(cfg["warehouses"], seed=seed)
        if tracer is None:
            return workload.factory_for

        def traced_for(worker_id: int):
            return tracer.wrap("bench", "TpccWorkload.factory",
                               workload.factory_for(worker_id))
        return traced_for
    from repro.workloads import smallbank

    return smallbank.SmallbankWorkload(cfg["customers"]).factory_for


def run_round(database, cfg: dict, factory_for, measure_us: float,
              seed: int) -> dict:
    """One closed-loop round: workers issue until ``measure_us`` of
    virtual time has passed (or their factories stop), then in-flight
    roots drain."""
    from repro.bench import harness

    scheduler = database.scheduler
    events, start_us = scheduler.events_dispatched, scheduler.now
    before = probe()
    start = perf()
    result = harness.run_measurement(database, cfg["workers"],
                                     factory_for, warmup_us=0.0,
                                     measure_us=measure_us, seed=seed)
    wall = perf() - start
    probe_s = probe_seconds(before, probe())
    committed = sum(1 for stats in result.raw_stats if stats.committed)
    return {"wall_s": wall, "probe_s": probe_s, "committed": committed,
            "aborted": len(result.raw_stats) - committed,
            "events": scheduler.events_dispatched - events,
            "virtual_us": scheduler.now - start_us}


def durability_totals(database) -> dict:
    if database.durability is None:
        return {}
    flushers = database.durability_stats()["flushers"].values()
    return {key: sum(f[key] for f in flushers)
            for key in ("fsyncs", "records_flushed", "bytes_flushed")}


def sum_rounds(rounds: list[dict]) -> dict:
    return {key: sum(r[key] for r in rounds)
            for key in ("wall_s", "committed", "aborted", "events",
                        "virtual_us")}


def drive(database, cfg: dict, seed: int, rounds: int, tracer, window,
          reports: list, certify_s: list,
          certify_probe_s: list) -> tuple[list[dict], object, dict]:
    """One segment's drive of a fresh database; returns its rounds, the
    recorder of the history it certifies and that history's round.
    Certifications of a recorded window, whose cost does not depend on
    the database's state, run between the rounds and so spread over the
    run; the others run after the drive."""
    from repro.formal import audit

    if cfg["benchmark"] == "smallbank-certify":
        # The drive is the recording of the fixed, seeded history.
        if tracer:
            tracer.keep_spans()
        with window("drive"):
            recorder = audit.attach_recorder(database)
            done = run_round(database, cfg, capped(
                factory_source(cfg, seed, tracer), cfg["history_txns"]),
                HISTORY_WINDOW_US, seed)
            audit.detach_recorder(database)
        return [done], recorder, done
    recorder, recorded = None, {}
    if "audit_events" in cfg:
        # A window recorded on the fresh database, so its history, and
        # the cost of certifying it, depend on the seed alone.
        with window("certify"):
            recorder, recorded = record_window(database, cfg, seed * 1000)
    factory_for = factory_source(cfg, seed, tracer)
    done = []
    if tracer:
        tracer.keep_spans()
    for index in range(rounds):
        with window("drive"):
            done.append(run_round(database, cfg, factory_for,
                                  cfg["round_us"], seed * 1000 + index + 1))
        if recorder is not None:
            with window("certify"):
                certify(database, recorder, reports, certify_s,
                        certify_probe_s)
    # Without a recorder, certification checks the final database (for
    # tpcc-durable, its replication certificate).
    return done, recorder, recorded


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=[
        name for name, cfg in WORKLOADS.items()
        if cfg["kind"] == "embedded"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    cfg = WORKLOADS[args.workload]
    use_program()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    window = tracer.window if tracer else no_window

    checks: dict[str, bool] = {}
    setups, certify_s, reports, segments = [], [], [], []
    setup_probe_s: list[float] = []
    certify_probe_s: list[float] = []
    violations: list[str] = []
    database = None
    for __ in range(max(1, args.setups)):
        if database is not None:
            database.close()
            database = None
            gc.collect()
        before = probe()
        with window("setup"):
            # Timed with the collector off: a collection the previous
            # build's garbage triggers would be charged to this one.
            gc.disable()
            start = perf()
            database = build(cfg, args.seed)
            setups.append(perf() - start)
            gc.enable()
        setup_probe_s.append(probe_seconds(before, probe()))
        # Drive with no set-up garbage left for the collector.
        gc.collect()
        rounds, recorder, recorded = drive(database, cfg, args.seed,
                                           args.rounds, tracer, window,
                                           reports, certify_s,
                                           certify_probe_s)
        segments.append(rounds)
        for __ in range(cfg.get("certify_per_segment", 0)):
            with window("certify"):
                certify(database, recorder, reports, certify_s,
                        certify_probe_s)
        if cfg["benchmark"] == "tpcc":
            from repro.workloads import tpcc
            from repro.workloads.tpcc.consistency import (
                ConsistencyViolation)

            try:
                tpcc.check_database(database, cfg["warehouses"])
            except ConsistencyViolation as violation:
                violations.append(str(violation))

    result: dict = {"workload": args.workload, "seed": args.seed,
                    "traced": bool(tracer), "setup_s": setups,
                    "setup_probe_s": setup_probe_s,
                    "certify_s": certify_s,
                    "certify_probe_s": certify_probe_s,
                    "audit_round": recorded}
    result["segments"] = segments
    result["drive"] = sum_rounds([r for segment in segments
                                  for r in segment])
    result["segment"] = {key: sum(r[key] for r in segments[0])
                         for key in ("committed", "aborted", "events")}
    if recorder is not None and cfg["benchmark"] == "smallbank-certify":
        history = recorder.history
        result["history"] = {"txns": len(history.txns()),
                             "ops": len(history.operations())}
    result["durability"] = durability_totals(database)
    if database.replication is not None:
        stats = database.replication_stats()
        result["replication"] = {"records_shipped":
                                 stats["records_shipped"]}

    # -- output checks --------------------------------------------------
    checks["segments_identical"] = all(
        [(r["committed"], r["aborted"], r["events"]) for r in segment] ==
        [(r["committed"], r["aborted"], r["events"]) for r in segments[0]]
        for segment in segments)
    checks["certify_all_ok"] = all(report["ok"] for report in reports)
    if cfg["benchmark"] == "tpcc":
        checks["replication_certified"] = all(
            report["replication"].get("enabled") for report in reports)
        checks["tpcc_consistency"] = not violations
        result["violations"] = violations
    result["checks"] = checks
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        result["ledger"] = tracer.windows
        if args.spans:
            OUT.mkdir(parents=True, exist_ok=True)
            result["spans_written"] = tracer.write_spans(args.spans)
    database.close()
    emit(result)


if __name__ == "__main__":
    main()
