"""Shared pieces of the benchmark: workload configs, paths, statistics.

Nothing here imports the program; the pass entry points
(``embedded.py``, ``served.py``) add ``src`` to ``sys.path`` themselves.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Ledgers and span files of traced runs (ignored by git).
OUT = BENCH_DIR / "out"

#: One entry per workload: the configuration its pass builds and drives.
#: BENCHMARK.json records each workload's one-line reason.
WORKLOADS: dict[str, dict] = {
    "sb-embedded": {
        "kind": "embedded", "benchmark": "smallbank",
        "customers": 4000, "containers": 4, "mpl": 4, "workers": 8,
        "cc": "occ",
        # A measured run is ``setups`` segments (build, drive, certify;
        # see ``embedded.py``).  A segment drives closed-loop rounds of
        # ``round_us`` virtual time; ``run.py`` sizes their number from
        # ``--seconds``, with ``round_wall_s`` per round (with its
        # certification and speed probes) and ``segment_wall_s`` for
        # the rest of a segment (as measured on a 2-vCPU VM).  A traced
        # pass is one segment of ``trace_rounds`` rounds.
        "setups": 10, "round_us": 5_000.0, "round_wall_s": 0.35,
        "segment_wall_s": 0.6, "trace_rounds": 16,
        # A window of ``audit_events`` history events recorded on each
        # fresh database and certified after every round: many short
        # certifications of one fixed-size input, spread over the run.
        "audit_events": 1_200,
    },
    "tpcc-durable": {
        "kind": "embedded", "benchmark": "tpcc",
        "warehouses": 2, "workers": 4, "mpl": 4, "cc": "occ",
        "durability": "group", "replicas": 1, "replication": "sync",
        "setups": 8, "round_us": 10_000.0, "round_wall_s": 0.3,
        "segment_wall_s": 0.8, "trace_rounds": 12,
        # The final database of each segment, certified three times.
        "certify_per_segment": 3,
    },
    "sb-served": {
        "kind": "served", "benchmark": "smallbank",
        "customers": 4000, "containers": 4, "mpl": 4, "cc": "occ",
        "mix": (("deposit_checking", 0.4), ("balance", 0.4),
                ("amalgamate", 0.2)),
        "rate": 1000.0, "outstanding": 32,
        # After an unmeasured ``warmup_s`` window, the run repeats
        # ``cycles`` times: phase A (open loop) for the ``phase_a`` share
        # of the cycle, phase B (window) for the ``phase_b`` share, then
        # ``certify_per_cycle`` certifications of a window of
        # ``audit_events`` history events recorded on the fresh database.
        # ``run.py`` takes the median cycle.  The server builds
        # ``setups`` times before it serves, and the generator times one
        # more set-up after every cycle.  The no-op floor pass replays
        # at most ``floor_arrivals`` of the A schedule.
        "setups": 3, "cycles": 10, "phase_a": 0.45, "phase_b": 0.2,
        "warmup_s": 1.0,
        "floor_arrivals": 2000, "audit_events": 1_200, "workers": 8,
        "certify_per_cycle": 3,
    },
    "sb-certify": {
        "kind": "embedded", "benchmark": "smallbank-certify",
        "customers": 400, "containers": 4, "mpl": 4, "workers": 8,
        "cc": "occ", "history_txns": 1000,
        # Each segment records the history once and certifies it three
        # times: many certifications spread over the run.
        "setups": 7, "certify_per_segment": 3,
    },
}


def program_env() -> dict[str, str]:
    """Environment for a pass process: the program on ``PYTHONPATH`` and
    no ``REPRO_*`` overrides, so every run builds the same database."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def use_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: program sources not found under "
                         f"{SRC}")
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def emit(result: dict) -> None:
    """Print a pass result as the last line of standard output."""
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    sys.stdout.flush()


def last_json_line(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("pass printed no JSON result")
