"""sb-served: SmallBank over TCP against a server in its own process.

Two roles, each its own process::

    python3 perfbench/served.py client --seed N --budget S
        [--setups R] [--trace] [--spans FILE]
    python3 perfbench/served.py server --seed N --setups R [--trace]

``run.py`` starts the *client* role: the load generator.  It starts the
server role as its child and talks to it over the child's standard
input and output (one JSON line each way per command).  The generator
process runs two threads, the generator and the ``TcpClient`` event
loop, over one connection.

After an unmeasured warm-up window, the generator runs ``cycles``
identical cycles of: phase A, open-loop Poisson arrivals at ``rate``
through ``run_open_loop``; phase B, a window keeping ``outstanding``
requests in flight; ``certify_per_cycle`` certifications, by the
server, of a fixed-size window it recorded in process on the fresh
database; one timed set-up of a throwaway database and server in the
generator process, so that set-up times spread over the run.  The
server and the generator each run on a processor of their own where
there are two.  After every phase the server reports its total money,
which must equal the total before the first cycle plus every committed
deposit (``amalgamate`` conserves money), and its committed count,
which must equal the client's.  Last, the floor pass replays the phase
A schedule against a client that completes every request at once: the
generator's own latency.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import subprocess
import sys
import threading
import time

from common import (BENCH_DIR, OUT, WORKLOADS, emit, peak_rss_mb,
                    program_env, use_program)
from embedded import certify, record_window
from speed import probe, probe_seconds
from tracing import Tracer, no_window

perf = time.perf_counter
CFG = WORKLOADS["sb-served"]


def pin(role: int) -> None:
    """Give the server (role 0) and the generator (role 1) a processor
    each, where the process may use two or more.  Left to the
    scheduler, the two processes sometimes share one processor for a
    whole run, and phase B then commits half as many requests per
    second as in a run where they do not."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[role]})


# ----------------------------------------------------------------------
# Server role
# ----------------------------------------------------------------------

def build_database():
    from repro.core.database import ReactorDatabase
    from repro.core.deployment import shared_nothing
    from repro.workloads import smallbank

    deployment = shared_nothing(CFG["containers"], mpl=CFG["mpl"],
                                cc_scheme=CFG["cc"])
    database = ReactorDatabase(deployment,
                               smallbank.declarations(CFG["customers"]))
    smallbank.load(database, CFG["customers"])
    return database


async def timed_setup() -> tuple[float, object, object]:
    """Build and load a database and start a server on it, timed with
    the collector off, as in ``embedded.py``; returns the seconds, the
    database and the server."""
    from repro.serving.server import ReactorServer

    gc.disable()
    start = perf()
    database = build_database()
    server = ReactorServer(database)
    await server.start()
    took = perf() - start
    gc.enable()
    return took, database, server


def spare_setup() -> tuple[float, float]:
    """One more timed set-up, in the generator process between cycles,
    so that the run's set-up times spread over the run and the server's
    peak resident set stays that of one database; returns the seconds
    and the machine-speed probe's seconds around them."""
    async def once() -> tuple[float, float]:
        before = probe()
        took, database, server = await timed_setup()
        probe_s = probe_seconds(before, probe())
        await server.stop()
        database.close()
        return took, probe_s
    timed = asyncio.run(once())
    gc.collect()
    return timed


class ServerProcess:
    """Holds the database; answers control commands on stdin."""

    def __init__(self, setups: int, tracer) -> None:
        self.setups = setups
        self.tracer = tracer
        self.window = tracer.window if tracer else no_window
        self.database = None
        self.server = None
        self.recorder = None
        self.audit_round: dict = {}
        self.mark: dict = {}

    async def start(self, seed: int) -> dict:
        """Build (``setups`` times), serve the last build, and record a
        window on it for certification before any request arrives."""
        times, probes = [], []
        for __ in range(max(1, self.setups)):
            if self.server is not None:
                await self.server.stop()
                self.database.close()
                self.server = self.database = None
                gc.collect()
            before = probe()
            with self.window("setup"):
                took, self.database, self.server = await timed_setup()
                times.append(took)
            probes.append(probe_seconds(before, probe()))
        with self.window("certify"):
            self.record(seed)
        # Serve with no set-up garbage left for the collector.
        gc.collect()
        return {"port": self.server.address[1], "setup_s": times,
                "setup_probe_s": probes, "audit_round": self.audit_round}

    def stats(self) -> dict:
        from repro.workloads import smallbank

        database = self.database
        value = database.telemetry.registry.value
        residence = database.telemetry.histogram(
            "serving_wire_latency_us")
        return {
            "cpu_s": time.process_time(),
            "committed": value("txn_commits_total"),
            "aborted": value("txn_aborts_total"),
            "accepted": value("serving_accepted_total"),
            "shed": value("serving_shed_total"),
            "events": database.scheduler.events_dispatched,
            "total_money": smallbank.total_money(database,
                                                 CFG["customers"]),
            "residence_buckets": list(residence.buckets),
        }

    def record(self, seed: int) -> None:
        """Record a fixed-size window in process on the fresh database."""
        self.recorder, self.audit_round = record_window(self.database,
                                                        CFG, seed)

    def certify(self) -> dict:
        """Certify the recorded window ``certify_per_cycle`` times."""
        reports: list = []
        times: list = []
        probes: list = []
        for __ in range(CFG["certify_per_cycle"]):
            certify(self.database, self.recorder, reports, times, probes)
        return {"certify_s": times, "certify_probe_s": probes,
                "ok": all(report["ok"] for report in reports)}

    def handle(self, command: dict) -> dict:
        op = command["op"]
        if op == "stats":
            return self.stats()
        if op == "certify":
            with self.window("certify"):
                return self.certify()
        if op == "mark":
            # The start of a served phase; "add" closes it.
            self.mark = {}
            if self.tracer:
                self.tracer.keep_spans()
                self.mark = self.tracer.snapshot()
            return {"cpu_s": time.process_time()}
        if op == "add":
            if self.tracer:
                self.tracer.add_since("serve", self.mark)
            return {}
        if op == "ledger":
            # The server's span rows go to their own file; the wire key
            # (session, id) ties them to the generator's.
            if command["spans"]:
                self.tracer.write_spans(command["spans"])
            return {"ledger": self.tracer.windows}
        if op == "quit":
            return {"peak_rss_mb": peak_rss_mb()}
        raise ValueError(f"unknown command {op!r}")


async def serve(setups: int, seed: int, tracer) -> None:
    process = ServerProcess(setups, tracer)
    ready = await process.start(seed)
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    emit(ready)
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            command = json.loads(line)
            emit(process.handle(command))
            if command["op"] == "quit":
                break
    finally:
        await process.server.stop()
        process.database.close()


# ----------------------------------------------------------------------
# Client (generator) role
# ----------------------------------------------------------------------

class ServerControl:
    """The server child process and its command pipe."""

    def __init__(self, setups: int, seed: int, trace: bool) -> None:
        command = [sys.executable, str(BENCH_DIR / "served.py"),
                   "server", "--setups", str(setups), "--seed", str(seed)]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=program_env())
        self.ready = self._reply()

    def _reply(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("server process ended without answering")
        return json.loads(line)

    def ask(self, op: str, **fields) -> dict:
        self.process.stdin.write(json.dumps({"op": op, **fields}) + "\n")
        self.process.stdin.flush()
        return self._reply()

    def close(self) -> dict:
        try:
            return self.ask("quit")
        finally:
            self.process.stdin.close()
            self.process.wait(timeout=30)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)


class Mix:
    """Seeded SmallBank request stream.  Deposits carry whole amounts of
    at least 1, which the money check relies on."""

    def __init__(self, seed: int, label: str) -> None:
        self.rng = random.Random(f"sb-served/{label}/{seed}")
        self.names, self.weights = zip(*CFG["mix"])

    def next(self) -> tuple[str, str, tuple]:
        from repro.workloads.smallbank import reactor_name

        rng = self.rng
        n = CFG["customers"]
        proc = rng.choices(self.names, self.weights)[0]
        src = rng.randrange(n)
        if proc == "deposit_checking":
            return (reactor_name(src), proc, (float(rng.randint(1, 100)),))
        if proc == "balance":
            return (reactor_name(src), proc, ())
        dst = (src + rng.randrange(1, n)) % n
        return (reactor_name(src), proc, (reactor_name(dst),))


class Tally:
    """Outcomes of one phase, fed from the client's event-loop thread."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.committed = self.aborted = self.shed = self.errors = 0
        self.deposits = 0.0

    def note(self, spec, outcome) -> None:
        with self.lock:
            if outcome.committed:
                self.committed += 1
                if spec[1] == "deposit_checking":
                    self.deposits += spec[2][0]
            elif outcome.shed:
                self.shed += 1
            elif outcome.error_code is not None:
                self.errors += 1
            else:
                self.aborted += 1


class TallyingClient:
    """Forwards to the real client and tallies each outcome."""

    def __init__(self, client, tally: Tally) -> None:
        self.client, self.tally = client, tally

    def submit(self, reactor, proc, *args, read_only=None, on_done=None):
        spec = (reactor, proc, args)
        tally = self.tally

        def done(outcome):
            tally.note(spec, outcome)
            on_done(outcome)
        return self.client.submit(reactor, proc, *args,
                                  read_only=read_only, on_done=done)


class NoopClient:
    """Completes every request at once: the generator's own floor."""

    def submit(self, reactor, proc, *args, read_only=None, on_done=None):
        from repro.client.base import Outcome

        on_done(Outcome(True))


def window_phase(client, mix: Mix, outstanding: int, seconds: float,
                 tally: Tally) -> dict:
    """Keep ``outstanding`` requests in flight for ``seconds``; each
    completion issues the next request from the client's loop thread."""
    lock = threading.Lock()
    state = {"inflight": 0, "issued": 0}
    drained = threading.Event()
    stop_at = perf() + seconds

    def issue() -> None:
        with lock:
            spec = mix.next()
            state["inflight"] += 1
            state["issued"] += 1

        def done(outcome, spec=spec):
            tally.note(spec, outcome)
            if perf() < stop_at:
                issue()
            with lock:
                state["inflight"] -= 1
                if state["inflight"] == 0:
                    drained.set()
        client.submit(spec[0], spec[1], *spec[2], on_done=done)

    start = perf()
    for __ in range(outstanding):
        issue()
    if not drained.wait(seconds + 60.0):
        raise TimeoutError("window phase did not drain")
    return {"issued": state["issued"], "wall_s": perf() - start}


def bucket_p50(before: list[int], after: list[int]) -> float:
    """Median of what a telemetry histogram observed between two reads
    of its buckets, as the upper bound of the median's bucket."""
    from repro.telemetry.metrics import BUCKET_BOUNDS, Histogram

    delta = Histogram("delta", ())
    delta.buckets = [b - a for a, b in zip(before, after)]
    delta.count = sum(delta.buckets)
    delta.max = BUCKET_BOUNDS[-1]
    return delta.percentile(0.5)


def same_money(total: float, expected: float) -> bool:
    """Totals agree up to float rounding over the summed balances; a
    deposit lost or applied twice moves the total by at least 1."""
    return abs(total - expected) < 0.01


def percentiles(latencies: list[float]) -> dict:
    from repro.bench.metrics import percentile

    return {"p50_us": percentile(latencies, 50.0),
            "p99_us": percentile(latencies, 99.0),
            "samples": len(latencies),
            # A p99 needs about 1k samples to be resolved.
            "p99_resolved": len(latencies) >= 1000}


def run_client(args) -> dict:
    use_program()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    window = tracer.window if tracer else no_window
    from repro.client import TcpClient
    from repro.serving.loadgen import ArrivalSchedule, run_open_loop

    checks: dict[str, bool] = {}
    certify_s: list[float] = []
    certify_probe_s: list[float] = []
    cycles: list[dict] = []
    server = ServerControl(args.setups, args.seed, args.trace)
    setup_s = list(server.ready["setup_s"])
    setup_probe_s = list(server.ready["setup_probe_s"])
    # After the server started, so that it could still pick its own
    # processor; the client's event-loop thread inherits this one.
    pin(1)

    def check(name: str, ok: bool) -> None:
        checks[name] = checks.get(name, True) and ok

    try:
        client = TcpClient("127.0.0.1", server.ready["port"]).connect()
        result: dict = {"workload": "sb-served", "seed": args.seed,
                        "traced": bool(tracer),
                        "setup_s": setup_s, "setup_probe_s": setup_probe_s,
                        "audit_round": server.ready["audit_round"]}
        first = server.ask("stats")
        money = first["total_money"]
        # Warm up (first writes to each record, allocator, socket
        # buffers) with an unmeasured window before the cycles.
        warmup = Tally()
        window_phase(client, Mix(args.seed, "warmup"), CFG["outstanding"],
                     CFG["warmup_s"], warmup)
        money += warmup.deposits
        stats = measured_from = server.ask("stats")
        check("committed", stats["committed"] - first["committed"]
              == warmup.committed)
        seconds = args.budget / CFG["cycles"]
        latencies: list[float] = []
        # Every cycle replays the same phase A arrivals and requests and
        # starts phase B on the same request stream, so cycles are
        # repetitions of one measurement.
        count = max(1, int(CFG["rate"] * seconds * CFG["phase_a"]))
        schedule = ArrivalSchedule.poisson(CFG["rate"], count,
                                           seed=args.seed * 1000)
        mix = Mix(args.seed, "a")
        specs = [mix.next() for __ in range(count)]
        if tracer:
            tracer.keep_spans()
        for cycle in range(CFG["cycles"]):
            # -- phase A: open loop -----------------------------------
            tally_a = Tally()
            server.ask("mark")
            with window("client"):
                phase_a = run_open_loop(TallyingClient(client, tally_a),
                                        schedule, specs.__getitem__)
            server.ask("add")
            stats_a = server.ask("stats")
            latencies.extend(phase_a.latencies_us)
            money += tally_a.deposits
            check("money", same_money(stats_a["total_money"], money))
            check("committed", stats_a["committed"] - stats["committed"]
                  == tally_a.committed)

            # -- phase B: window --------------------------------------
            tally_b = Tally()
            server_cpu = server.ask("mark")["cpu_s"]
            client_cpu = time.process_time()
            with window("client"):
                phase_b = window_phase(
                    client, Mix(args.seed, "b"),
                    CFG["outstanding"], seconds * CFG["phase_b"], tally_b)
            client_cpu = time.process_time() - client_cpu
            server.ask("add")
            stats_b = server.ask("stats")

            money += tally_b.deposits
            check("money", same_money(stats_b["total_money"], money))
            check("committed", stats_b["committed"] - stats_a["committed"]
                  == tally_b.committed)
            cycles.append({
                "a_offered": phase_a.offered,
                "a_committed": phase_a.committed,
                "a_aborted": tally_a.aborted, "a_shed": phase_a.shed,
                "a_errors": tally_a.errors, "a_wall_s": phase_a.duration_s,
                "a_p50_us": phase_a.p50_us,
                "a_max_send_lag_us": phase_a.max_send_lag_us,
                "b_issued": phase_b["issued"], "b_wall_s": phase_b["wall_s"],
                "b_committed": tally_b.committed,
                "b_aborted": tally_b.aborted, "b_shed": tally_b.shed,
                "b_errors": tally_b.errors,
                "b_client_cpu_s": client_cpu,
                "b_server_cpu_s": stats_b["cpu_s"] - server_cpu,
                "b_accepted": stats_b["accepted"] - stats_a["accepted"],
                "server_committed": stats_b["committed"] - stats["committed"],
                "residence_p50_us": bucket_p50(stats["residence_buckets"],
                                               stats_a["residence_buckets"])})
            stats = stats_b

            # -- certifications in every cycle, spread over the run ----
            # (a traced pass needs the call counts of one cycle only).
            if cycle == 0 or not tracer:
                reply = server.ask("certify")
                certify_s.extend(reply["certify_s"])
                certify_probe_s.extend(reply["certify_probe_s"])
                check("certify_all_ok", reply["ok"])
            if not tracer:
                took, probe_s = spare_setup()
                setup_s.append(took)
                setup_probe_s.append(probe_s)
        client.close()

        # -- floor: phase A's schedule against a no-op client ---------
        floor_schedule = ArrivalSchedule(
            schedule.kind, schedule.rate_tps,
            schedule.offsets_s[:CFG["floor_arrivals"]])
        floor = run_open_loop(NoopClient(), floor_schedule,
                              specs.__getitem__)
        result.update({
            "cycles": cycles, "certify_s": certify_s,
            "certify_probe_s": certify_probe_s,
            "phase_a": percentiles(latencies),
            "floor": {"max_send_lag_us": floor.max_send_lag_us,
                      **percentiles(floor.latencies_us)},
            "server": {key: stats[key] - measured_from[key]
                       for key in ("committed", "accepted", "events")}})
        if tracer:
            server_spans = args.spans.replace(".json", ".server.json")
            result["ledger"] = {
                **server.ask("ledger", spans=server_spans)["ledger"],
                **tracer.windows}
            if args.spans:
                OUT.mkdir(parents=True, exist_ok=True)
                result["spans_written"] = tracer.write_spans(args.spans)
        result["peak_rss_mb"] = server.close()["peak_rss_mb"]
    finally:
        server.kill()
    result["checks"] = checks
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("client", "server"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=10.0)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    if args.role == "client":
        emit(run_client(args))
        return
    pin(0)
    use_program()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    asyncio.run(serve(args.setups, args.seed, tracer))


if __name__ == "__main__":
    main()
