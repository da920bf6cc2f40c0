"""End-to-end benchmark of the reactor database: four workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (configurations in ``common.WORKLOADS``):

* ``sb-embedded``  SmallBank standard mix, closed loop, in process.
* ``tpcc-durable`` TPC-C standard mix with group-commit durability and
  one synchronous replica per container.
* ``sb-served``    SmallBank over TCP against a server process.
* ``sb-certify``   a fixed seeded SmallBank history, certified.

Every pass runs in a fresh process (``embedded.py`` or ``served.py``),
so the peak resident set it reports is that workload's own.  The seed
fixes every input: the loader, the transaction streams and the arrival
schedule.

``--trace 0`` measures the end-to-end metrics with no tracing.  A run
repeats one seeded measurement several times: the in-process workloads
run identical segments (build, drive, certify; see ``embedded.py``),
sb-served identical cycles.  Every timed sample of one thread's work (a
drive round, a build, a certification) is scaled to a reference
machine speed by the probe timed around it (``speed.py``): other
tenants of the host slow whole runs down by up to 1.8 times, which no
choice among a run's own repetitions removes.  sb-served's phases run
in two processes and are not scaled.  Each metric takes the median of
its repetitions.

=============== ==========================================================
txn_per_s       committed root transactions per second of the drive,
                each round at the median of its repetitions (sb-served:
                server commits per wall second of phases A and B;
                sb-certify: the recording of its history)
served_p50_us   median wall latency of a request from its intended send
                to its completion (sb-served: phase A, open loop).  In
                process, where there is no request, it is the time
                between two issues of one closed-loop worker, median
                over the rounds: it restates txn_per_s
served_tps      committed requests per second with a fixed number in
                flight (sb-served: phase B, 32 outstanding; in process:
                median over the rounds)
certify_s       seconds of one ``certify_all`` of one fixed input
                (sb-certify: the seeded history; tpcc-durable: each
                segment's final database, whose replication certificate
                it checks; the others: a window of a fixed number of
                history events recorded on the fresh database)
setup_s         build and load time, timed with the garbage collector
                off (sb-served: plus server start until it accepts; the
                server's builds and one more after every cycle)
peak_rss_mb     peak resident set of the process holding the database
commit_frac     1 - (aborted roots + errors + sheds + failed output
                checks) / attempted roots
=============== ==========================================================

``--trace 1`` runs an untraced reference pass and a traced pass of the
same fixed work, prints the per-layer metrics (``ledger.PER_LAYER``)
and writes the ledger to ``perfbench/out/``.  The result line is the
last line of standard output; the lines before it repeat each metric
with its raw (unscaled) value and its sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import (BENCH_DIR, OUT, SRC, WORKLOADS, last_json_line,
                    median, program_env)
from speed import scaled

#: The in-process workloads run a fixed amount of work, so their counts,
#: abort fractions and memory repeat under a seed: ``--seconds`` sets the
#: number of drive rounds per segment.  Starting the process and reading
#: the result take the rest of the time.
DRIVE_SHARE = 0.9

#: Longest a pass may run before the run fails (a traced run makes two).
PASS_TIMEOUT_S = 85.0


def run_pass(workload: str, seed: int, seconds: float, mode: str,
             spans: str = "") -> dict:
    """Run one pass in a fresh process and return its result.

    ``mode`` is ``measure`` (the end-to-end run: several builds, work
    sized by ``seconds``), ``reference`` (one build, the fixed work of a
    traced pass, untraced) or ``traced``.
    """
    cfg = WORKLOADS[workload]
    setups = cfg["setups"] if mode == "measure" else 1
    if cfg["kind"] == "served":
        command = [sys.executable, str(BENCH_DIR / "served.py"), "client",
                   "--seed", str(seed), "--budget", str(seconds)]
    else:
        rounds = 1  # sb-certify: the recording of its history
        if mode != "measure":
            rounds = cfg.get("trace_rounds", 1)
        elif "round_wall_s" in cfg:
            rounds = max(1, round(
                (seconds * DRIVE_SHARE / setups - cfg["segment_wall_s"])
                / cfg["round_wall_s"]))
        command = [sys.executable, str(BENCH_DIR / "embedded.py"),
                   workload, "--seed", str(seed), "--rounds", str(rounds)]
    command += ["--setups", str(setups)]
    if mode == "traced":
        command.append("--trace")
    if spans:
        command += ["--spans", spans]
    completed = subprocess.run(command, capture_output=True, text=True,
                               env=program_env(),
                               timeout=PASS_TIMEOUT_S)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"benchmark: {workload} pass failed "
                         f"(exit {completed.returncode})")
    return last_json_line(completed.stdout)


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------

def failed_checks(result: dict) -> list[str]:
    return sorted(name for name, ok in result["checks"].items() if not ok)


def samples_s(result: dict, name: str, scale: bool) -> list[float]:
    """The run's ``<name>_s`` samples, scaled by the probe around each
    (``speed.py``) or raw."""
    seconds = result[f"{name}_s"]
    if not scale:
        return seconds
    return [scaled(value, probe_s) for value, probe_s in
            zip(seconds, result[f"{name}_probe_s"])]


def embedded_timings(result: dict, scale: bool) -> dict[str, float]:
    segments = result["segments"]
    workers = WORKLOADS[result["workload"]]["workers"]
    # Every segment repeats the same rounds: each round counts at the
    # median of its repetitions.
    rounds = segments[0]
    walls = [median([scaled(r["wall_s"], r["probe_s"]) if scale
                     else r["wall_s"] for r in repeats])
             for repeats in zip(*segments)]
    return {
        "txn_per_s": sum(r["committed"] for r in rounds) / sum(walls),
        # A closed-loop worker issues its next transaction when the last
        # one completes: the wall time between its issues, from each
        # round's wall time and issue count.  It restates throughput.
        "served_p50_us": median([
            workers * wall * 1e6 / (r["committed"] + r["aborted"])
            for r, wall in zip(rounds, walls)]),
        "served_tps": median([r["committed"] / wall
                              for r, wall in zip(rounds, walls)]),
        "certify_s": median(samples_s(result, "certify", scale)),
        "setup_s": median(samples_s(result, "setup", scale)),
    }


def embedded_end_to_end(result: dict) -> tuple[dict, dict, int, int,
                                                dict]:
    drive, segments = result["drive"], result["segments"]
    attempted = drive["committed"] + drive["aborted"]
    failed = len(failed_checks(result))
    aborted = drive["aborted"]
    metrics = {
        **embedded_timings(result, scale=True),
        "peak_rss_mb": result["peak_rss_mb"],
        "commit_frac": 1.0 - (aborted + failed) / attempted,
    }
    rounds = len(segments[0])
    samples = {"txn_per_s": f"{rounds} rounds x {len(segments)} segments",
               "served_p50_us": f"{rounds} rounds",
               "served_tps": f"{rounds} rounds",
               "certify_s": f"median of {len(result['certify_s'])}",
               "setup_s": f"median of {len(result['setup_s'])}"}
    return (metrics, embedded_timings(result, scale=False), attempted,
            failed, samples)


def served_timings(result: dict, scale: bool) -> dict[str, float]:
    cycles = result["cycles"]
    # Cycles repeat one measurement: each metric takes the median cycle.
    # The served phases run in two processes and wait on each other and
    # on the network path: a one-thread probe does not describe them,
    # so they are not scaled.
    return {
        "txn_per_s": median([c["server_committed"] /
                             (c["a_wall_s"] + c["b_wall_s"])
                             for c in cycles]),
        "served_p50_us": median([c["a_p50_us"] for c in cycles]),
        "served_tps": median([c["b_committed"] / c["b_wall_s"]
                              for c in cycles]),
        "certify_s": median(samples_s(result, "certify", scale)),
        "setup_s": median(samples_s(result, "setup", scale)),
    }


def served_end_to_end(result: dict) -> tuple[dict, dict, int, int, dict]:
    cycles = result["cycles"]

    def total(key: str) -> int:
        return sum(cycle[key] for cycle in cycles)

    attempted = served_attempted(result)
    failed = total("a_errors") + total("b_errors") + total("a_shed") + \
        total("b_shed") + len(failed_checks(result))
    aborted = total("a_aborted") + total("b_aborted")
    metrics = {
        **served_timings(result, scale=True),
        "peak_rss_mb": result["peak_rss_mb"],
        "commit_frac": 1.0 - (aborted + failed) / attempted,
    }
    middle = f"median of {len(cycles)} cycles"
    samples = {"txn_per_s": middle,
               "served_p50_us": f"{cycles[0]['a_offered']} samples a "
                                f"cycle, {middle}",
               "served_tps": middle,
               "certify_s": f"median of {len(result['certify_s'])}",
               "setup_s": f"median of {len(result['setup_s'])}"}
    return (metrics, served_timings(result, scale=False), attempted,
            failed, samples)


def served_attempted(result: dict) -> int:
    return sum(c["a_offered"] + c["b_issued"] for c in result["cycles"])


END_TO_END_UNITS = {"txn_per_s": "1/s", "served_p50_us": "us",
                    "served_tps": "1/s", "certify_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB",
                    "commit_frac": "ratio"}


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def untraced_run(args) -> tuple[dict, int, int, bool, list[str]]:
    result = run_pass(args.workload, args.seed, args.seconds, "measure")
    kind = WORKLOADS[args.workload]["kind"]
    end_to_end = served_end_to_end if kind == "served" else \
        embedded_end_to_end
    metrics, raw, attempted, failed, samples = end_to_end(result)
    problems = failed_checks(result)
    lines = [f"{name:14} {value:14.6f} {END_TO_END_UNITS[name]:6}"
             + (f"  (raw {raw[name]:.6g}; {samples[name]})"
                if name in raw else "")
             for name, value in metrics.items()]
    if kind == "served":
        floor = result["floor"]
        lines.append(
            f"  phase A p99 {result['phase_a']['p99_us']:.1f} us "
            f"({result['phase_a']['samples']} samples"
            f"{'' if result['phase_a']['p99_resolved'] else ', unresolved'}"
            f"); generator floor p50 {floor['p50_us']:.1f} us, p99 "
            f"{floor['p99_us']:.1f} us ({floor['samples']} samples); max "
            f"send lag "
            f"{max(c['a_max_send_lag_us'] for c in result['cycles']):.1f}"
            f" us")
    if problems:
        lines.append(f"  failed output checks: {', '.join(problems)}")
    out = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
           for name, value in metrics.items()}
    return out, attempted, failed, not problems, lines


def traced_run(args) -> tuple[dict, int, int, bool, list[str]]:
    from ledger import complete, embedded_metrics, served_metrics

    workload, seed = args.workload, args.seed
    kind = WORKLOADS[workload]["kind"]
    stem = OUT / f"ledger-{workload}-seed{seed}"
    OUT.mkdir(parents=True, exist_ok=True)
    if kind == "served":
        # Each pass gets half the run; the reference is untraced.
        ref = run_pass(workload, seed, args.seconds / 2, "reference")
        traced = run_pass(workload, seed, args.seconds / 2, "traced",
                          spans=f"{stem}.spans.json")
        metrics = served_metrics(ref, traced)
        attempted = served_attempted(traced)
        repeats = True
    else:
        ref = run_pass(workload, seed, args.seconds, "reference")
        traced = run_pass(workload, seed, args.seconds, "traced",
                          spans=f"{stem}.spans.json")
        metrics = embedded_metrics(ref, traced)
        attempted = traced["drive"]["committed"] + \
            traced["drive"]["aborted"]
        # Tracing must not change what the simulation does: the untraced
        # and the traced pass run the same code on the same inputs.
        repeats = ref["segment"] == traced["segment"]
    problems = failed_checks(ref) + failed_checks(traced)
    per_layer = complete(metrics)
    ledger = {"workload": workload, "seed": seed,
              "metrics": per_layer, "windows": traced["ledger"]}
    # The ledger it replaces is kept for ``ledger.py``, which compares
    # two runs; only its user can say whether they ran the same code.
    path = f"{stem}.json"
    if os.path.exists(path):
        os.replace(path, f"{stem}.prev.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    if not repeats:
        problems.append("the traced pass simulated other work than the "
                        "untraced one")
    lines = [f"{name:34} {row['value']:16.6f} {row['unit']}"
             for name, row in per_layer.items()]
    lines.append(f"ledger written to {os.path.relpath(path)}")
    failed = len(problems)
    return per_layer, attempted, failed, not problems, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no program sources under {SRC}\n")
        return 2
    started = time.perf_counter()
    run = traced_run if args.trace else untraced_run
    metrics, attempted, failed, correct, lines = run(args)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{time.perf_counter() - started:.1f} s")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
