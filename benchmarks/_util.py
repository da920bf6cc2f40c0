"""Shared helpers for the benchmark suite.

Each benchmark regenerates one paper table/figure.  Because pytest
captures stdout by default, every report is also persisted under
``benchmarks/results/`` so the regenerated series survive the run
(EXPERIMENTS.md is written from those files).

Benchmarks use *scaled-down* parameters (fewer epochs, shorter
measurement windows, smaller tables) to keep the whole suite's
wall-clock time reasonable; every experiment module accepts the
paper-scale parameters for full runs.

Machine-readable output: :func:`emit_json` writes a
``BENCH_<name>.json`` file next to the text report so CI jobs and
downstream tooling can consume results without parsing tables;
benchmarks that run as scripts gate it behind a ``--json`` flag via
:func:`json_enabled` (the ``BENCH_JSON=1`` environment variable works
too).  Every JSON file carries a ``meta`` block recording the git SHA
the numbers were produced from and the benchmark's configuration dict,
so archived results stay attributable.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

RESULTS_DIR = Path(__file__).parent / "results"


def _drain_telemetry() -> list[dict[str, Any]]:
    """Per-measurement telemetry summaries accumulated by the bench
    harness (lazy import: _util must stay importable without src on
    the path for pure-report tooling)."""
    try:
        from repro.bench.harness import drain_telemetry_summaries
    except ImportError:
        return []
    return drain_telemetry_summaries()


def _ensure_results_dir() -> None:
    # parents=True: survives a fresh checkout where even the parent is
    # missing (e.g. running a single benchmark file from elsewhere).
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)


def git_sha() -> str:
    """The repository HEAD the benchmark ran at, or ``"unknown"``.

    In CI the SHA comes from ``GITHUB_SHA`` — deterministic and free
    of git subprocess calls (actions/checkout detaches HEAD, and a
    shallow checkout may not even have the ref state a subprocess
    would need).
    """
    env_sha = os.environ.get("GITHUB_SHA", "").strip()
    if env_sha:
        return env_sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent, capture_output=True, text=True,
            timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def emit_report(name: str, report_fn, *args) -> str:
    """Run ``report_fn(*args)``, print its output, persist it."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        report_fn(*args)
    text = buffer.getvalue()
    print(text)
    _ensure_results_dir()
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    return text


def json_enabled(argv: list[str] | None = None) -> bool:
    """Did the caller ask for machine-readable output?"""
    argv = sys.argv if argv is None else argv
    env = os.environ.get("BENCH_JSON", "").strip().lower()
    return "--json" in argv or env not in ("", "0", "false", "no")


def emit_json(name: str, payload: Any,
              config: dict[str, Any] | None = None) -> Path:
    """Persist ``payload`` as ``benchmarks/results/BENCH_<name>.json``.

    A ``meta`` block (git SHA + the benchmark's ``config`` dict) is
    recorded alongside dict payloads so every archived result is
    attributable to the code and parameters that produced it.
    """
    _ensure_results_dir()
    if isinstance(payload, dict):
        payload = {
            **payload,
            "meta": {
                "benchmark": name,
                "git_sha": git_sha(),
                "backend": "sim",
                "config": dict(config or {}),
            },
        }
        if "telemetry" not in payload:
            summaries = _drain_telemetry()
            if summaries:
                # One block per measurement since the last emit:
                # commit/abort latency percentiles straight from the
                # telemetry registry.  Report-only — the perf gate
                # reads the "runs" rows, never this key.
                payload["telemetry"] = summaries
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                    + "\n")
    return path


def summary_payload(summary) -> dict[str, Any]:
    """The machine-readable core of one RunSummary (throughput,
    aborts, latency percentiles)."""
    return {
        "committed": summary.committed,
        "aborted": summary.aborted,
        "abort_rate": round(summary.abort_rate, 6),
        "throughput_tps": round(summary.throughput_tps, 3),
        "throughput_std": round(summary.throughput_std, 3),
        "latency_us": round(summary.latency_us, 3),
        "p50_us": round(summary.p50_us, 3),
        "p99_us": round(summary.p99_us, 3),
    }
