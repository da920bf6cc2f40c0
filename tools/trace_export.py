#!/usr/bin/env python3
"""Export a deterministic Chrome trace from a tiny SmallBank run.

Builds a 3-container shared-nothing deployment with full tracing
(every root sampled, system tracks on), drives a short seeded
closed-loop measurement, and writes the telemetry facade's Chrome
trace-event JSON — loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.

The simulation runs entirely on the virtual clock and the tracer adds
no scheduler events and consumes no randomness, so the same seed
yields a *byte-identical* file on every run — CI exports twice and
``cmp``s the bytes, then validates the structure with
``tools/check_trace.py``.  ``--replication sync`` adds one replica per
container, so commits also wait on replica acks.

Usage::

    PYTHONPATH=src python tools/trace_export.py --out trace.json
    PYTHONPATH=src python tools/trace_export.py \
        --seed 7 --durability group --measure-us 20000 --out -
    PYTHONPATH=src python tools/trace_export.py --replication sync \
        --out trace_sync.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

DEFAULT_OUT = REPO / "benchmarks" / "results" / \
    "trace_smallbank.json"


def export_trace(seed: int = 42, n_customers: int = 12,
                 workers: int = 3, measure_us: float = 10_000.0,
                 durability: str = "group",
                 scheme: str = "occ",
                 replication: str = "none") -> str:
    """One seeded SmallBank run under full tracing; returns the
    Chrome trace-event JSON text."""
    from repro.bench.harness import run_measurement
    from repro.core.database import ReactorDatabase
    from repro.core.deployment import RangePlacement, shared_nothing
    from repro.durability.config import DurabilityConfig
    from repro.replication.config import ReplicationConfig
    from repro.telemetry.config import full_tracing
    from repro.workloads import smallbank

    dur = None
    if durability != "off":
        dur = DurabilityConfig(enabled=True, mode=durability)
    repl = None
    if replication != "none":
        repl = ReplicationConfig(replicas_per_container=1,
                                 mode=replication)
    deployment = shared_nothing(
        3, mpl=4, cc_scheme=scheme,
        placement=RangePlacement(4), durability=dur, replication=repl)
    deployment.telemetry = full_tracing()
    database = ReactorDatabase(deployment,
                               smallbank.declarations(n_customers))
    smallbank.load(database, n_customers)
    workload = smallbank.SmallbankWorkload(n_customers)
    run_measurement(database, workers, workload.factory_for,
                    warmup_us=2_000.0, measure_us=measure_us,
                    n_epochs=2, seed=seed)
    return database.telemetry.export_chrome_json()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--customers", type=int, default=12)
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--measure-us", type=float, default=10_000.0)
    parser.add_argument("--durability", default="group",
                        choices=("off", "sync", "group", "async"))
    parser.add_argument("--scheme", default="occ")
    parser.add_argument("--replication", default="none",
                        choices=("none", "sync", "async"),
                        help="replication mode (one replica per "
                             "container)")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="output path, or '-' for stdout")
    args = parser.parse_args(argv)

    text = export_trace(seed=args.seed, n_customers=args.customers,
                        workers=args.workers,
                        measure_us=args.measure_us,
                        durability=args.durability,
                        scheme=args.scheme,
                        replication=args.replication)
    if args.out == "-":
        sys.stdout.write(text)
        return 0
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    import json
    payload = json.loads(text)
    events = payload.get("traceEvents", [])
    spans = sum(1 for e in events if e.get("ph") == "X")
    print(f"wrote {out} ({spans} spans, "
          f"{len(payload.get('metrics', {}))} metric series, "
          f"seed {args.seed})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
