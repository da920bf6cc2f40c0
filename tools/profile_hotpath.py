#!/usr/bin/env python3
"""cProfile runner over a tiny harness benchmark.

Answers "where does the interpreter spend its time?" for the hot paths
the wall-clock microbench (``benchmarks/bench_harness_speed.py``)
gates: one seeded closed-loop measurement is driven under cProfile,
the top-N functions are printed by cumulative and by internal time,
and a machine-readable snapshot is written so future PRs can diff
where the time went.

Usage::

    PYTHONPATH=src python tools/profile_hotpath.py
    PYTHONPATH=src python tools/profile_hotpath.py \
        --workload ycsb --scheme mvocc --top 30 \
        --json benchmarks/results/profile_hotpath.json

The snapshot JSON maps ``file:line(function)`` to call counts and
timings, and carries the run's telemetry metrics snapshot under
``telemetry_metrics`` so the profile is attributable to the simulated
work it measured; ``tools/bench_compare.py`` does not gate it
(profiles are machine-dependent diagnostics, not regression metrics).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

DEFAULT_SNAPSHOT = REPO / "benchmarks" / "results" / "profile_hotpath.json"

WORKLOADS = ("smallbank", "ycsb", "tpcc-neworder",
             "tpcc-stocklevel")


def _drive(workload: str, scheme: str,
           measure_us: float) -> tuple[int, dict]:
    """One seeded measurement; returns (transactions processed,
    telemetry metrics snapshot)."""
    from repro.bench.harness import run_measurement
    from repro.core.database import ReactorDatabase
    from repro.core.deployment import (
        RangePlacement,
        shared_everything_with_affinity,
        shared_nothing,
    )
    from repro.experiments.common import tpcc_database
    from repro.workloads import smallbank, tpcc, ycsb

    if workload == "smallbank":
        database = ReactorDatabase(
            shared_everything_with_affinity(4, cc_scheme=scheme),
            smallbank.declarations(40))
        smallbank.load(database, 40)
        factory_for = smallbank.SmallbankWorkload(40).factory_for
        workers = 4
    elif workload == "ycsb":
        n_keys, n_containers = 64, 4
        database = ReactorDatabase(
            shared_nothing(n_containers, mpl=4, cc_scheme=scheme,
                           placement=RangePlacement(
                               n_keys // n_containers)),
            [(ycsb.key_name(i), ycsb.KEY_REACTOR)
             for i in range(n_keys)])
        for i in range(n_keys):
            name = ycsb.key_name(i)
            database.load(name, "kv", [
                {"key": name, "value": "x" * ycsb.RECORD_SIZE}])
        factory_for = ycsb.YcsbWorkload(
            1, theta=0.6, n_containers=n_containers, n_keys=n_keys,
            read_fraction=0.5).factory_for
        workers = 8
    elif workload == "tpcc-neworder":
        database = tpcc_database("shared-nothing-async", 2, mpl=4,
                                 cc_scheme=scheme)
        factory_for = tpcc.TpccWorkload(
            n_warehouses=2, mix=tpcc.NEW_ORDER_ONLY,
            remote_item_prob=0.1, invalid_item_prob=0.0).factory_for
        workers = 4
    elif workload == "tpcc-stocklevel":
        database = tpcc_database("shared-nothing-async", 2, mpl=4,
                                 cc_scheme=scheme)
        factory_for = tpcc.TpccWorkload(
            n_warehouses=2,
            mix=(("stock_level", 1.0),)).factory_for
        workers = 4
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown workload {workload!r}")

    result = run_measurement(database, workers, factory_for,
                             warmup_us=5_000.0, measure_us=measure_us,
                             n_epochs=4)
    metrics = database.telemetry.metrics_snapshot()
    return len(result.raw_stats), metrics


def _snapshot(stats: pstats.Stats, top: int) -> list[dict]:
    """The top-``top`` cumulative entries, machine-readable."""
    rows = []
    entries = sorted(stats.stats.items(),
                     key=lambda item: item[1][3], reverse=True)
    for (filename, line, name), (cc, nc, tottime, cumtime, __) in \
            entries[:top]:
        short = filename
        try:
            short = str(Path(filename).relative_to(REPO))
        except ValueError:
            pass
        rows.append({
            "function": f"{short}:{line}({name})",
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime": round(tottime, 4),
            "cumtime": round(cumtime, 4),
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS,
                        default="smallbank")
    parser.add_argument("--scheme", default="occ")
    parser.add_argument("--measure-us", type=float, default=30_000.0,
                        help="virtual measurement window (default "
                             "30ms: a few thousand transactions)")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--json", type=Path, default=DEFAULT_SNAPSHOT,
                        help="snapshot path (use /dev/null to skip)")
    args = parser.parse_args(argv)

    profiler = cProfile.Profile()
    profiler.enable()
    txns, telemetry_metrics = _drive(args.workload, args.scheme,
                                     args.measure_us)
    profiler.disable()

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(args.top)
    stats.sort_stats("tottime").print_stats(args.top)
    print(buffer.getvalue())
    print(f"profiled {txns} transactions "
          f"({args.workload}/{args.scheme})")

    if str(args.json) not in ("/dev/null", "NUL"):
        args.json.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": args.workload,
            "scheme": args.scheme,
            "measure_us": args.measure_us,
            "transactions": txns,
            "top_cumulative": _snapshot(stats, args.top),
            "telemetry_metrics": telemetry_metrics,
        }
        args.json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
