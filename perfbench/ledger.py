"""Per-layer metrics from a traced pass, and the ledger-diff tool.

A traced run (``run.py --trace 1``) writes its ledger to
``perfbench/out/ledger-<workload>-seed<seed>.json`` and keeps the one it
replaces as ``...prev.json``.  To see where a change's saving appears,
run the traced benchmark on both commits and compare::

    python3 perfbench/ledger.py OLD.json NEW.json [--same-code]

It prints every per-layer metric with its change, then the call count
of every wrapped name that differs.  Metrics in :data:`EXACT` repeat
exactly under a seed on the sim workloads, so two runs of the same code
must agree on them: with ``--same-code`` the tool exits 1 when they do
not.
"""

from __future__ import annotations

import json
import sys

from common import median

#: Per-layer metrics and their units, in BENCHMARK.json order.
PER_LAYER: list[tuple[str, str]] = [
    ("sim.events_per_txn", "count"),
    ("sim.sched_calls_per_txn", "count"),
    ("sim.run_self_share", "ratio"),
    ("sim.virtual_tps", "1/s"),
    ("runtime.submits_per_txn", "count"),
    ("runtime.self_share", "ratio"),
    ("core.calls_per_txn", "count"),
    ("core.self_share", "ratio"),
    ("concurrency.calls_per_txn", "count"),
    ("concurrency.self_share", "ratio"),
    ("concurrency.commit_ratio", "ratio"),
    ("storage.calls_per_txn", "count"),
    ("storage.self_share", "ratio"),
    ("relational.calls_per_txn", "count"),
    ("relational.self_share", "ratio"),
    ("relational.load_share", "ratio"),
    ("durability.appends_per_txn", "count"),
    ("durability.bytes_per_txn", "bytes"),
    ("durability.records_per_fsync", "count"),
    ("durability.self_share", "ratio"),
    ("replication.ships_per_txn", "count"),
    ("replication.self_share", "ratio"),
    ("telemetry.calls_per_txn", "count"),
    ("telemetry.self_share", "ratio"),
    ("serving.server_cpu_us_per_req", "us"),
    ("serving.codec_us_per_req", "us"),
    ("serving.residence_p50_us", "us"),
    ("serving.reqs_per_pump", "count"),
    ("client.cpu_us_per_req", "us"),
    ("client.submit_us", "us"),
    ("loadgen.floor_p50_us", "us"),
    ("loadgen.floor_p99_us", "us"),
    ("loadgen.max_send_lag_us", "us"),
    ("loadgen.served_p99_us", "us"),
    ("loadgen.samples", "count"),
    ("loadgen.p99_resolved", "bool"),
    ("formal.conflict_checks", "count"),
    ("formal.edges_share", "ratio"),
    ("formal.record_ops_per_txn", "count"),
    ("bench.self_share", "ratio"),
    ("trace_overhead", "x"),
]

#: Metrics that repeat exactly under a seed on the sim workloads.
EXACT = {"sim.events_per_txn", "sim.sched_calls_per_txn",
         "sim.virtual_tps", "runtime.submits_per_txn",
         "core.calls_per_txn", "concurrency.calls_per_txn",
         "concurrency.commit_ratio", "storage.calls_per_txn",
         "relational.calls_per_txn", "durability.appends_per_txn",
         "durability.bytes_per_txn", "durability.records_per_fsync",
         "replication.ships_per_txn", "telemetry.calls_per_txn",
         "formal.conflict_checks", "formal.record_ops_per_txn"}

def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def _calls(window: dict, prefix: str, skip: tuple = ()) -> int:
    return sum(row["calls"] for name, row in window.items()
               if name.startswith(prefix) and name not in skip)


def _self(window: dict, prefix: str) -> float:
    return sum(row["self_s"] for name, row in window.items()
               if name.startswith(prefix))


def _merge(*windows: dict) -> dict:
    out: dict = {}
    for window in windows:
        for name, row in window.items():
            bucket = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                           "total_s": 0.0})
            for key in bucket:
                bucket[key] += row[key]
    return out


def embedded_metrics(ref: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics of an in-process workload (sim backend)."""
    windows = traced["ledger"]
    drive, setup = windows["drive"], windows["setup"]
    run = traced["drive"]
    committed = run["committed"]
    wall = run["wall_s"]
    dur = traced.get("durability") or {}
    metrics = {
        "sim.events_per_txn": _per(run["events"], committed),
        "sim.sched_calls_per_txn": _per(
            _calls(drive, "sim.", ("sim.SimScheduler.run",)), committed),
        "sim.run_self_share": _per(
            drive.get("sim.SimScheduler.run", {}).get("self_s", 0.0),
            wall),
        "sim.virtual_tps": _per(committed, run["virtual_us"] / 1e6),
        "relational.load_share": _per(_self(setup, "relational."),
                                      sum(traced["setup_s"])),
        "durability.bytes_per_txn": _per(dur.get("bytes_flushed", 0),
                                         committed),
        "durability.records_per_fsync": _per(
            dur.get("records_flushed", 0), dur.get("fsyncs", 0)),
        "replication.ships_per_txn": _per(
            (traced.get("replication") or {}).get("records_shipped", 0),
            committed),
        "concurrency.commit_ratio": _per(
            _calls(drive, "concurrency.ConcurrencyControl.install"),
            _calls(drive, "concurrency.ConcurrencyControl.validate")),
        "trace_overhead": _per(wall, ref["drive"]["wall_s"]),
    }
    _formal(metrics, traced)
    if traced["workload"] == "sb-certify":
        metrics["trace_overhead"] = _per(sum(traced["certify_s"]),
                                         sum(ref["certify_s"]))
    _layer_counts(metrics, drive, committed, wall)
    return metrics


def _layer_counts(metrics: dict, window: dict, committed: int,
                  wall: float) -> None:
    """``<layer>.calls_per_txn`` style counts and self-time shares."""
    counts = {"runtime": "runtime.submits_per_txn",
              "core": "core.calls_per_txn",
              "concurrency": "concurrency.calls_per_txn",
              "storage": "storage.calls_per_txn",
              "relational": "relational.calls_per_txn",
              "durability": "durability.appends_per_txn",
              "telemetry": "telemetry.calls_per_txn"}
    for layer, name in counts.items():
        prefix = "durability.RedoLog.append" if layer == "durability" \
            else layer + "."
        metrics[name] = _per(_calls(window, prefix), committed)
    for layer in ("runtime", "core", "concurrency", "storage",
                  "relational", "durability", "replication", "telemetry",
                  "bench"):
        metrics[f"{layer}.self_share"] = _per(
            _self(window, layer + "."), wall)


def served_metrics(ref: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics of sb-served: wire and CPU costs per request
    from the untraced pass, span costs from the traced one."""
    server = traced["ledger"]["serve"]
    client = traced["ledger"]["client"]
    accepted = traced["server"]["accepted"]
    committed = traced["server"]["committed"]
    wall = sum(c["a_wall_s"] + c["b_wall_s"] for c in traced["cycles"])

    def total(result: dict, key: str) -> float:
        return sum(cycle[key] for cycle in result["cycles"])

    def server_cpu_per_req(result: dict) -> float:
        return _per(total(result, "b_server_cpu_s"),
                    total(result, "b_accepted"))

    submit = client.get("client.TcpClient.submit",
                        {"calls": 0, "total_s": 0.0})
    metrics = {
        "sim.events_per_txn": _per(traced["server"]["events"], committed),
        "sim.sched_calls_per_txn": _per(
            _calls(server, "sim.", ("sim.SimScheduler.run",)),
            committed),
        "sim.run_self_share": _per(
            server.get("sim.SimScheduler.run", {}).get("self_s", 0.0),
            wall),
        "serving.server_cpu_us_per_req": server_cpu_per_req(ref) * 1e6,
        "serving.codec_us_per_req": _per(
            _self(server, "serving.") * 1e6, accepted),
        "serving.residence_p50_us": median(
            [c["residence_p50_us"] for c in ref["cycles"]]),
        "serving.reqs_per_pump": _per(
            accepted, server.get("sim.SimScheduler.run",
                                 {}).get("calls", 0)),
        "client.cpu_us_per_req": _per(total(ref, "b_client_cpu_s") * 1e6,
                                      total(ref, "b_issued")),
        "client.submit_us": _per(submit["total_s"] * 1e6,
                                 submit["calls"]),
        "loadgen.floor_p50_us": ref["floor"]["p50_us"],
        "loadgen.floor_p99_us": ref["floor"]["p99_us"],
        "loadgen.max_send_lag_us": max(c["a_max_send_lag_us"]
                                       for c in ref["cycles"]),
        "loadgen.served_p99_us": ref["phase_a"]["p99_us"],
        "loadgen.samples": ref["phase_a"]["samples"],
        "loadgen.p99_resolved": int(ref["phase_a"]["p99_resolved"]),
        "concurrency.commit_ratio": _per(
            _calls(server, "concurrency.ConcurrencyControl.install"),
            _calls(server, "concurrency.ConcurrencyControl.validate")),
        "relational.load_share": _per(
            _self(traced["ledger"]["setup"], "relational."),
            sum(traced["setup_s"])),
        # Wrappers run in the server: the overhead is its CPU per
        # request in phase B, traced over untraced.
        "trace_overhead": _per(server_cpu_per_req(traced),
                               server_cpu_per_req(ref)),
    }
    _formal(metrics, traced)
    _layer_counts(metrics, server, committed, wall)
    return metrics


def _formal(metrics: dict, traced: dict) -> None:
    """Certification of the recorded window: conflict tests per
    certification, the share of the conflict-edge pass, and recorded
    operations per transaction."""
    windows = traced["ledger"]
    cert = windows["certify"]
    metrics["formal.conflict_checks"] = _per(_calls(cert, "formal.Op."),
                                             len(traced["certify_s"]))
    metrics["formal.edges_share"] = _per(
        cert.get("formal.ReactorHistory.subtxn_conflict_edges",
                 {}).get("total_s", 0.0), sum(traced["certify_s"]))
    recorded = traced.get("audit_round", traced.get("drive", {}))
    metrics["formal.record_ops_per_txn"] = _per(
        _calls(_merge(*windows.values()),
               "formal.HistoryRecorder.record_op"),
        recorded.get("committed", 0))


def complete(metrics: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric, zero where the workload does not reach
    the layer, in the result format."""
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}


# ----------------------------------------------------------------------
# ledger-diff
# ----------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def diff_ledgers(old: dict, new: dict) -> list[str]:
    """Print the per-layer deltas; return exact metrics that differ."""
    mismatched = []
    print(f"{'metric':34} {'old':>14} {'new':>14} {'delta':>10}")
    for name, __ in PER_LAYER:
        a = old["metrics"].get(name, {}).get("value", 0.0)
        b = new["metrics"].get(name, {}).get("value", 0.0)
        change = f"{(b - a) / a:+.2%}" if a else ("=" if a == b else "new")
        flag = ""
        if name in EXACT and a != b:
            flag = "  exact count differs"
            mismatched.append(name)
        print(f"{name:34} {_fmt(a):>14} {_fmt(b):>14} {change:>10}{flag}")
    print()
    print(f"{'wrapped call':52} {'old calls':>10} {'new calls':>10}")
    for window in sorted(set(old["windows"]) | set(new["windows"])):
        old_w = old["windows"].get(window, {})
        new_w = new["windows"].get(window, {})
        for name in sorted(set(old_w) | set(new_w)):
            a = old_w.get(name, {}).get("calls", 0)
            b = new_w.get(name, {}).get("calls", 0)
            if a != b:
                print(f"{window + ':' + name:52} {a:>10} {b:>10}")
    return mismatched


def main(argv: list[str]) -> int:
    same_code = "--same-code" in argv
    paths = [arg for arg in argv if arg != "--same-code"]
    if len(paths) != 2:
        print(__doc__)
        return 2
    with open(paths[0], encoding="utf-8") as handle:
        old = json.load(handle)
    with open(paths[1], encoding="utf-8") as handle:
        new = json.load(handle)
    print(f"old: {old['workload']} seed {old['seed']}    "
          f"new: {new['workload']} seed {new['seed']}")
    mismatched = diff_ledgers(old, new)
    if mismatched:
        print(f"\nexact counts differ: {', '.join(mismatched)}")
    sim_workload = new["workload"] != "sb-served"
    return 1 if same_code and mismatched and sim_workload else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
