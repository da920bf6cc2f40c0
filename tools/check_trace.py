#!/usr/bin/env python3
"""Validate an exported Chrome trace (``tools/trace_export.py``).

Structural checks on the trace-event JSON so CI catches a broken
exporter (or a span-tree regression in the instrumentation) without a
human loading the file into Perfetto:

* every ``"X"`` event carries the required keys, non-negative ``ts``
  and ``dur``, and a unique ``args.span_id``;
* every ``parent_span_id`` resolves to an emitted span on the same
  track, and the child's interval nests inside its parent's (small
  epsilon for the 3-decimal rounding);
* every commit-acknowledgement wait (a ``*:ack_wait`` span) is a
  child of its transaction's ``commit`` span;
* events are sorted by timestamp (the exporter's deterministic
  ordering contract);
* each process id used by an event has a ``process_name`` metadata
  record;
* every metric series name in the ``metrics`` snapshot (label suffix
  stripped) appears in the telemetry catalog — an unknown name means
  someone bypassed the registry's catalog check;
* the trace records a virtual clock (``metadata.clock``): the exporter
  stamps every trace it writes that way, so any other clock means the
  file came from somewhere else.

Usage::

    python tools/check_trace.py benchmarks/results/trace_smallbank.json

Exit status: 0 when the trace is well-formed, 1 with one line per
problem otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

#: Slack for interval-nesting checks: exports round ts/dur to 3
#: decimals, so a child closed at its parent's end can overshoot by
#: up to one rounding step.
EPSILON = 0.002

REQUIRED_X_KEYS = ("name", "ph", "pid", "tid", "ts", "dur", "args")


def check_events(events: list) -> list[str]:
    problems: list[str] = []
    spans: dict[int, dict] = {}
    named_pids: set = set()
    used_pids: set = set()
    last_ts = None
    for index, event in enumerate(events):
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") == "process_name":
                named_pids.add(event.get("pid"))
            continue
        if ph != "X":
            problems.append(f"event {index}: unexpected phase {ph!r}")
            continue
        for key in REQUIRED_X_KEYS:
            if key not in event:
                problems.append(f"event {index}: missing {key!r}")
        ts = event.get("ts", 0)
        dur = event.get("dur", 0)
        if ts < 0 or dur < 0:
            problems.append(f"event {index} ({event.get('name')}): "
                            f"negative ts/dur ({ts}, {dur})")
        if last_ts is not None and ts < last_ts:
            problems.append(f"event {index}: timestamps not sorted "
                            f"({ts} after {last_ts})")
        last_ts = ts
        used_pids.add(event.get("pid"))
        span_id = (event.get("args") or {}).get("span_id")
        if span_id is None:
            problems.append(f"event {index} ({event.get('name')}): "
                            f"no args.span_id")
            continue
        if span_id in spans:
            problems.append(f"duplicate span_id {span_id}")
        spans[span_id] = event
    for event in spans.values():
        parent_id = event["args"].get("parent_span_id")
        parent = spans.get(parent_id)
        name = event.get("name")
        if str(name).endswith(":ack_wait") and \
                (parent is None or parent.get("name") != "commit"):
            problems.append(f"span {event['args']['span_id']} ({name}): "
                            f"parent is not a commit span")
        if parent_id is None:
            continue
        if parent is None:
            problems.append(f"span {event['args']['span_id']} "
                            f"({name}): parent {parent_id} not in "
                            f"trace")
            continue
        if parent.get("pid") != event.get("pid"):
            problems.append(f"span {name}: parent on different track")
        if event["ts"] < parent["ts"] - EPSILON or \
                event["ts"] + event["dur"] > \
                parent["ts"] + parent["dur"] + EPSILON:
            problems.append(
                f"span {name} [{event['ts']}, "
                f"{event['ts'] + event['dur']}] escapes parent "
                f"{parent.get('name')} [{parent['ts']}, "
                f"{parent['ts'] + parent['dur']}]")
    for pid in sorted(used_pids - named_pids):
        problems.append(f"pid {pid} has events but no process_name "
                        f"metadata")
    if not spans:
        problems.append("trace contains no spans")
    return problems


def check_metrics(metrics: dict) -> list[str]:
    from repro.telemetry.catalog import CATALOG
    problems = []
    for series in metrics:
        base = series.split("{", 1)[0]
        if base not in CATALOG:
            problems.append(f"metric {series!r}: base name {base!r} "
                            f"not in the telemetry catalog")
    return problems


def check_payload(payload: dict) -> list[str]:
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload has no traceEvents list"]
    problems = []
    clock = (payload.get("metadata") or {}).get("clock")
    if clock is not None and clock != "virtual-microseconds":
        problems.append(f"trace records clock {clock!r}; expected "
                        "'virtual-microseconds'")
    problems.extend(check_events(events))
    metrics = payload.get("metrics")
    if isinstance(metrics, dict):
        problems.extend(check_metrics(metrics))
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", type=Path,
                        help="trace JSON from tools/trace_export.py")
    args = parser.parse_args(argv)
    payload = json.loads(args.trace.read_text())
    problems = check_payload(payload)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    events = payload["traceEvents"]
    spans = sum(1 for e in events if e.get("ph") == "X")
    backend = (payload.get("metadata") or {}).get("backend", "sim")
    print(f"OK: {args.trace} — {spans} spans, "
          f"{len(payload.get('metrics', {}))} metric series, "
          f"backend={backend}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
