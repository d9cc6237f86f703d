"""Load-generator CLI for the streaming authentication service.

Thin front end over :func:`repro.service.loadgen.run_loadgen` — start a
server (``python -m repro serve [--workers N]``), point this at it, and
read the sustained throughput and latency percentiles it measured.

Examples
--------
::

    # Closed loop: 8 always-busy virtual clients for 10s (+2s warmup).
    PYTHONPATH=src python tools/loadgen.py --mode closed --concurrency 8

    # Open loop: Poisson arrivals at 40 req/s, latency from scheduled
    # arrival time (coordinated-omission-safe).
    PYTHONPATH=src python tools/loadgen.py --mode open --rate 40

    # Short smoke against a sharded server, JSON to a file.
    PYTHONPATH=src python tools/loadgen.py --duration 5 --warmup 1 \\
        --port 8765 --json loadgen.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.cli import port
from repro.service.client import RetryPolicy
from repro.service.loadgen import LOADGEN_MODES, run_loadgen


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Generate load against a running repro serve endpoint."
    )
    parser.add_argument("--host", default="127.0.0.1", help="server host")
    parser.add_argument("--port", type=port, default=8765, help="server port")
    parser.add_argument(
        "--mode",
        choices=LOADGEN_MODES,
        default="closed",
        help="arrival discipline: closed (fixed concurrency) or open "
        "(Poisson arrivals at --rate)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="closed loop: number of always-busy virtual clients",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=20.0,
        help="open loop: mean arrival rate in requests/s",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=10.0,
        help="measured seconds (after warmup)",
    )
    parser.add_argument(
        "--warmup",
        type=float,
        default=2.0,
        help="seconds of traffic excluded from the report",
    )
    parser.add_argument(
        "--rounds", type=int, default=1, help="ranging rounds per request"
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=8,
        help="distinct sessions (seed-varied cells) to cycle through — "
        "spreads traffic across a sharded server",
    )
    parser.add_argument(
        "--environment", default="office", help="environment preset"
    )
    parser.add_argument(
        "--distance", type=float, default=1.0, help="true pair distance (m)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed of the session pool"
    )
    parser.add_argument(
        "--threshold", type=float, default=2.0, help="acceptance threshold (m)"
    )
    parser.add_argument(
        "--connections",
        type=int,
        default=None,
        help="TCP connections to multiplex over (default: min(concurrency, 8))",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry attempts per request beyond the first on retriable "
        "failures (busy/timeout/unavailable/connection loss); 0 disables",
    )
    parser.add_argument(
        "--attempt-timeout",
        type=float,
        default=None,
        help="per-attempt timeout in seconds (catches silently lost "
        "replies); requires --retries to be useful",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=0.0,
        help="server-side deadline budget stamped on every request "
        "(0 disables)",
    )
    parser.add_argument(
        "--scenario",
        metavar="NAME_OR_PATH",
        default=None,
        help="derive the request mix from a scenario document (builtin "
        "name or .toml/.json path): one session identity per servable "
        "compiled cell, so served traffic computes the scenario's own "
        "trials (overrides --sessions/--environment/--distance/--seed; "
        "see docs/scenarios.md)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the report as JSON ('-' for stdout only)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    retry = None
    if args.retries > 0:
        retry = RetryPolicy(
            attempts=args.retries + 1,
            attempt_timeout_s=args.attempt_timeout,
        )
    mix = None
    if args.scenario is not None:
        from repro.service.loadgen import request_mix_from_scenario

        mix = request_mix_from_scenario(args.scenario, rounds=args.rounds)
    report = asyncio.run(
        run_loadgen(
            args.host,
            args.port,
            mode=args.mode,
            concurrency=args.concurrency,
            rate_rps=args.rate,
            duration_s=args.duration,
            warmup_s=args.warmup,
            rounds=args.rounds,
            sessions=args.sessions,
            environment=args.environment,
            distance_m=args.distance,
            seed_base=args.seed,
            threshold_m=args.threshold,
            connections=args.connections,
            deadline_ms=args.deadline_ms,
            retry=retry,
            mix=mix,
        )
    )
    payload = report.to_json()
    if args.json and args.json != "-":
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    label = (
        f"{report.concurrency} clients"
        if report.mode == "closed"
        else f"{report.rate_rps:g} req/s target"
    )
    print(
        f"{report.mode} loop, {label}: "
        f"{report.requests} requests ({report.ok} ok, {report.busy} busy, "
        f"{report.timeout} timeout, {report.error} error, "
        f"{report.failed} failed; {report.retried} retried) "
        f"in {report.measured_s:.2f}s"
    )
    print(
        f"  throughput: {report.rounds_per_s:.2f} rounds/s "
        f"({report.requests_per_s:.2f} req/s)"
    )
    if report.latency_ms:
        print(
            "  latency ms (retry-inflated): "
            + ", ".join(
                f"{key}={report.latency_ms[key]:.1f}"
                for key in ("p50", "p95", "p99", "mean", "max")
            )
        )
    if report.first_attempt_latency_ms:
        print(
            "  latency ms (first-attempt ok): "
            + ", ".join(
                f"{key}={report.first_attempt_latency_ms[key]:.1f}"
                for key in ("p50", "p95", "p99", "mean", "max")
            )
        )
    for entry in report.scheduler_stats or []:
        print(
            f"  shard {entry['shard']}/{entry['shards']}: "
            f"{entry['rounds']} rounds in {entry['batches']} batches "
            f"(largest {entry['largest_batch']}, "
            f"queue high-water {entry['queue_high_water']}, "
            f"histogram {entry['batch_histogram'] or '-'}, "
            f"deadline-expired {entry['deadline_expired']}, "
            f"dsp-timeouts {entry['dsp_timeouts']})"
        )
    if args.json == "-":
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
