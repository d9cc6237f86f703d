"""Command-line interface: regenerate any table or figure from the paper.

Examples
--------
List everything that can be reproduced::

    python -m repro list

Regenerate Figure 1 with the paper's 10 trials per cell::

    python -m repro run fig1

Quick smoke pass over every experiment, four worker processes::

    python -m repro run-all --quick --jobs 4

Serve streaming authentication requests over TCP (``docs/service.md``)::

    python -m repro serve --port 8765

Results are deterministic in ``--seed`` regardless of ``--jobs``: the
parallel engine derives every trial's randomness from the experiment
description, never from scheduling order (``docs/pipeline.md``).
``--cache-dir`` persists shareable measurements (e.g. the σ_d estimates
behind Tables I/II) as JSON across invocations.

Every run uses one DSP configuration: the numpy kernels, one session at
a time in the engine, and the service's coalesced DSP passes.  The DSP
lanes a process runs captures on follow from ``--jobs`` (engine
workers) or ``--workers`` (shard workers).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

# Only stdlib-only modules load here: building the parser (and ``repro
# serve``'s router) must not pay for numpy, scipy or the simulator.  Each
# command imports the machinery it runs.
from repro.eval.registry import EXPERIMENTS, list_experiments, run_experiment
from repro.eval.reporting import format_throughput

if TYPE_CHECKING:
    from repro.eval.engine import TrialEngine

__all__ = ["main", "build_parser", "port"]


def _at_least(
    convert: Callable[[str], float], low: float, *, inclusive: bool = True
) -> Callable[[str], float]:
    """An argparse type: ``convert(text)``, finite and >= (or >) ``low``.

    An out-of-range value exits with status 2 and a usage message, like
    any other bad argument.
    """
    relation = ">=" if inclusive else ">"

    def parse(text: str) -> float:
        value = convert(text)
        in_range = value >= low if inclusive else value > low
        if not (math.isfinite(value) and in_range):
            raise argparse.ArgumentTypeError(
                f"must be {relation} {low}, got {text}"
            )
        return value

    # argparse names the type in its "invalid <type> value" message.
    parse.__name__ = convert.__name__
    return parse


_positive_int = _at_least(int, 1)
_non_negative_int = _at_least(int, 0)
_positive_float = _at_least(float, 0, inclusive=False)
_non_negative_float = _at_least(float, 0)


def port(text: str) -> int:
    """An argparse type: a TCP port, 0 (any free port) to 65535."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0..65535, got {text}")
    return value


def _add_engine_options(
    parser: argparse.ArgumentParser, *, cache_dir: bool = False
) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "worker processes for trial execution (default: auto = CPU "
            "count; 1 = serial). Results are identical for any value."
        ),
    )
    if cache_dir:
        parser.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="persist shareable measurements as JSON under DIR",
        )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print engine progress lines (trials/sec per plan) to stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piano-repro",
        description=(
            "PIANO (ICDCS 2017) reproduction: regenerate the paper's "
            "tables and figures on the simulated acoustic substrate"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument(
        "--trials", type=_positive_int, default=None,
        help="trials per cell (default: experiment-specific, paper-matching)",
    )
    run_parser.add_argument("--seed", type=_non_negative_int, default=0)
    run_parser.add_argument(
        "--quick", action="store_true", help="reduced trial counts"
    )
    _add_engine_options(run_parser, cache_dir=True)

    all_parser = sub.add_parser("run-all", help="run every experiment")
    all_parser.add_argument("--seed", type=_non_negative_int, default=0)
    all_parser.add_argument("--quick", action="store_true")
    _add_engine_options(all_parser, cache_dir=True)

    roc_parser = sub.add_parser(
        "roc",
        help="FRR/FAR ROC sweep over a threshold grid, one render set",
        description=(
            "Render the scene matrix once and decide every round under a "
            "whole threshold grid (repro.eval.sweep): per-scene FRR/FAR "
            "tables combining the §VI-C Gaussian-model curves with "
            "empirical rates from the fanned-out decisions.  Cost is "
            "O(renders) in the grid size; evidence cells are shared with "
            "Tables I/II through the measurement cache."
        ),
    )
    roc_parser.add_argument(
        "--trials", type=_at_least(int, 2), default=10,
        help=(
            "trials per scene cell, at least 2 for a spread "
            "(default: the tables' 10)"
        ),
    )
    roc_parser.add_argument("--seed", type=_non_negative_int, default=0)
    roc_parser.add_argument(
        "--quick", action="store_true", help="reduced trial counts"
    )
    roc_parser.add_argument(
        "--thresholds",
        type=float,
        nargs="+",
        default=None,
        metavar="TAU",
        help=(
            "threshold grid in meters (default: 16 points, "
            "0.25-2.125 m in 0.125 m steps)"
        ),
    )
    _add_engine_options(roc_parser, cache_dir=True)

    capture_parser = sub.add_parser(
        "capture",
        help="record a capture corpus: run cells live, persist renders",
        description=(
            "Run a grid of ranging cells live and persist their rendered "
            "captures into a content-addressed corpus (repro.corpus): "
            "each entry stores both capture buffers plus the frozen "
            "pre-render state, so `repro replay` re-runs only "
            "detect/decide and byte-verifies every decision.  "
            "See docs/corpus.md."
        ),
    )
    capture_parser.add_argument(
        "--corpus",
        required=True,
        metavar="DIR",
        help="corpus root to record into (existing entries are replaced)",
    )
    capture_parser.add_argument(
        "--profile",
        choices=("paper", "mini"),
        default="paper",
        help=(
            "'paper' records at the paper-scale config across preset "
            "environments; 'mini' records the quantized 4 kHz profile "
            "(small enough to check into git)"
        ),
    )
    capture_parser.add_argument(
        "--environments",
        nargs="+",
        default=None,
        metavar="ENV",
        help="preset environments to record (paper profile; default: office)",
    )
    capture_parser.add_argument(
        "--distances",
        type=float,
        nargs="+",
        default=None,
        metavar="M",
        help="device separations in meters (default: 0.5 1.0 2.0)",
    )
    capture_parser.add_argument(
        "--trials",
        type=_positive_int,
        default=4,
        help="trials per cell (default: 4)",
    )
    capture_parser.add_argument("--seed", type=_non_negative_int, default=0)
    _add_engine_options(capture_parser)

    replay_parser = sub.add_parser(
        "replay",
        help="replay a capture corpus, byte-verifying every decision",
        description=(
            "Re-run detect/decide from a recorded corpus without "
            "rendering anything (repro.corpus): in strict mode (the "
            "default) any replayed decision differing from the recording "
            "by even one byte fails the run — the cross-version "
            "regression check CI runs against the golden corpus.  "
            "See docs/corpus.md."
        ),
    )
    replay_parser.add_argument(
        "--corpus",
        required=True,
        metavar="DIR",
        help="corpus root to replay (every reconstructible entry)",
    )
    replay_parser.add_argument(
        "--tolerant",
        action="store_true",
        help=(
            "count decision mismatches per entry instead of failing on "
            "the first (for replaying under a deliberately different "
            "detector)"
        ),
    )
    replay_parser.add_argument(
        "--thresholds",
        type=float,
        nargs="+",
        default=None,
        metavar="TAU",
        help=(
            "also fan each replayed round's evidence out over this "
            "threshold grid and print grant counts per tau (no extra "
            "ranging cost)"
        ),
    )
    replay_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the replay report as JSON instead of text",
    )

    scenario_parser = sub.add_parser(
        "scenario",
        help="list, validate, and run declarative scenario documents",
        description=(
            "Declarative scenarios (repro.scenarios): device-fleet "
            "worlds described as TOML/JSON documents and compiled into "
            "trial plans.  The builtin library includes the paper's "
            "four scenes (compiled byte-identical to `repro run fig1` / "
            "`fig2a`) plus workloads beyond the paper — continuous "
            "re-auth, hidden-command attacks, multi-device homes.  "
            "See docs/scenarios.md."
        ),
    )
    scenario_sub = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_sub.add_parser(
        "list", help="list builtin scenarios and their compiled shape"
    )
    validate_parser = scenario_sub.add_parser(
        "validate",
        help="validate + compile scenario documents without running them",
    )
    validate_parser.add_argument(
        "scenarios",
        nargs="+",
        metavar="SCENARIO",
        help="builtin scenario names or paths to .toml/.json documents",
    )
    scenario_run_parser = scenario_sub.add_parser(
        "run", help="compile one scenario and run its trial plan"
    )
    scenario_run_parser.add_argument(
        "scenario",
        metavar="SCENARIO",
        help="builtin scenario name or path to a .toml/.json document",
    )
    scenario_run_parser.add_argument(
        "--trials",
        type=_positive_int,
        default=None,
        help="override trials per cell (default: the document's)",
    )
    scenario_run_parser.add_argument(
        "--seed", type=_non_negative_int, default=None,
        help="override the document's root seed",
    )
    _add_engine_options(scenario_run_parser)

    serve_parser = sub.add_parser(
        "serve",
        help="serve streaming authentication requests over TCP",
        description=(
            "Start the asyncio authentication service (repro.service): "
            "JSON-lines requests in, per-round ranging decisions "
            "streamed back, concurrent requests coalesced into shared "
            "DSP passes.  See docs/service.md."
        ),
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=port, default=8765, help="TCP port (0: any free port)"
    )
    serve_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "worker processes behind the endpoint; >1 starts the "
            "sharded front tier (each request goes to the worker "
            "owing the fewest rounds). Decisions are "
            "bit-identical for any value."
        ),
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=32,
        metavar="N",
        help=(
            "max rounds prepared/in detection at once (memory bound; "
            "excess rounds wait without bound, they are not rejected)"
        ),
    )
    serve_parser.add_argument(
        "--dsp-timeout-s",
        type=_positive_float,
        default=None,
        metavar="S",
        help=(
            "fail a DSP pass that exceeds this budget closed "
            "(its rounds answer a retriable timeout error and the "
            "executor is marked suspect); default: no timeout"
        ),
    )
    serve_parser.add_argument(
        "--max-respawns",
        type=_non_negative_int,
        default=5,
        metavar="N",
        help=(
            "sharded tier only: crashes of one shard slot tolerated "
            "inside the crash window before its circuit breaker opens "
            "and it stays down (requests answer unavailable)"
        ),
    )
    serve_parser.add_argument(
        "--respawn-backoff-s",
        type=_non_negative_float,
        default=0.25,
        metavar="S",
        help=(
            "sharded tier only: base of the bounded-exponential delay "
            "before respawning a crashed shard worker"
        ),
    )
    return parser


def _build_engine(args: argparse.Namespace) -> TrialEngine:
    """One engine per invocation: shared pool, shared measurement cache."""
    from repro.eval.engine import MeasurementCache, TrialEngine

    progress = None
    if args.progress:
        progress = lambda line: print(f"  {line}", file=sys.stderr)  # noqa: E731
    return TrialEngine(
        jobs=args.jobs,
        cache=MeasurementCache(disk_dir=getattr(args, "cache_dir", None)),
        progress=progress,
    )


def _cmd_list() -> int:
    print(f"{'id':12s}  {'paper artifact':14s}  description")
    print("-" * 76)
    for entry in list_experiments():
        print(f"{entry.name:12s}  {entry.paper_artifact:14s}  {entry.description}")
    return 0


def _cmd_run(name: str, trials: int | None, seed: int, quick: bool) -> int:
    start = time.time()
    report = run_experiment(name, trials=trials, seed=seed, quick=quick)
    print(report.to_text())
    summary = format_throughput(
        report.data.get("engine:trials_executed", 0),
        time.time() - start,
        cached_trials=report.data.get("engine:trials_cached", 0),
    )
    print(f"\n[{name} completed: {summary}]")
    return 0


def _cmd_roc(args: argparse.Namespace) -> int:
    from repro.eval.engine import get_engine
    from repro.eval.sweep import (
        DEFAULT_ROC_THRESHOLDS,
        build_roc_report,
        run_roc_sweep,
    )

    trials = args.trials
    if args.quick:
        trials = min(trials, 4)
    thresholds = (
        tuple(args.thresholds) if args.thresholds else DEFAULT_ROC_THRESHOLDS
    )
    start = time.time()
    sweep = run_roc_sweep(trials=trials, seed=args.seed, thresholds=thresholds)
    report = build_roc_report(sweep)
    print(report.to_text())
    engine = get_engine()
    summary = format_throughput(
        engine.counters.trials_executed,
        time.time() - start,
        cached_trials=engine.counters.trials_cached,
    )
    print(f"\n[roc completed: {summary}, {sweep.decisions} decisions]")
    return 0


def _cmd_capture(args: argparse.Namespace) -> int:
    """Record every spec live on the engine's pool; replay verifies."""
    from repro.corpus import CaptureCorpus, build_capture_specs, record_cell_spec

    specs = build_capture_specs(
        profile=args.profile,
        environments=args.environments,
        distances=args.distances,
        trials=args.trials,
        seed=args.seed,
    )
    trials = sum(spec.n_trials for spec in specs)
    record = partial(record_cell_spec, corpus=CaptureCorpus(args.corpus))
    start = time.time()
    with _build_engine(args) as engine:
        engine.map_tasks(record, specs, label="capture", trials=trials)
    print(f"recorded {len(specs)} cells ({trials} trials) into {args.corpus}")
    print(
        "[capture completed: "
        + format_throughput(trials, time.time() - start)
        + "]"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.core.decisions import ThresholdPolicy
    from repro.corpus import ReplayingSessionRunner
    from repro.sim.pipeline import render_call_counts, reset_render_call_counts

    runner = ReplayingSessionRunner(args.corpus, strict=not args.tolerant)
    reset_render_call_counts()
    start = time.time()
    reports = runner.replay_all()
    elapsed = time.time() - start
    renders = render_call_counts()
    # The replay contract: nothing re-rendered.  A nonzero count means a
    # code path silently fell back to live synthesis — fail the run.
    clean = renders == {"noise_plans": 0, "arrival_captures": 0}
    mismatched = sum(len(r.mismatches) for r in reports)

    if args.json:
        payload = {
            "corpus": args.corpus,
            "entries": [
                {
                    "fingerprint": r.fingerprint,
                    "environment": r.environment,
                    "distance_m": r.distance_m,
                    "replayed_trials": r.replayed_trials,
                    "restored_trials": r.restored_trials,
                    "mismatches": r.mismatches,
                }
                for r in reports
            ],
            "render_calls": renders,
            "elapsed_s": elapsed,
        }
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in reports:
            status = "ok" if not r.mismatches else f"{len(r.mismatches)} MISMATCHED"
            print(
                f"{r.fingerprint}  {r.environment:12s} {r.distance_m:5.2f} m  "
                f"{r.replayed_trials} replayed"
                + (f" + {r.restored_trials} restored" if r.restored_trials else "")
                + f"  [{status}]"
            )
        if args.thresholds:
            outcomes = [o for r in reports for o in r.cell.outcomes]
            print("\nthreshold fan-out over replayed evidence:")
            for tau in args.thresholds:
                policy = ThresholdPolicy(tau)
                grants = sum(policy.decide(o).granted for o in outcomes)
                print(f"  tau={tau:5.2f} m  {grants}/{len(outcomes)} granted")
        verified = sum(r.replayed_trials for r in reports)
        print(
            f"\n[replayed {len(reports)} entries, {verified} trials "
            f"byte-verified in {elapsed:.2f}s; render calls: "
            f"{renders['noise_plans']} noise, "
            f"{renders['arrival_captures']} arrivals]"
        )
    if not clean:
        print("replay error: render stages executed", file=sys.stderr)
        return 1
    if mismatched:
        return 1
    return 0


def _resolve_scenario(text: str):
    """A builtin scenario name, else a document path."""
    from repro.scenarios import BUILTIN_SCENARIOS, load_scenario

    if text in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[text]
    return load_scenario(text)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.eval.engine import use_engine
    from repro.scenarios import (
        BUILTIN_SCENARIOS,
        ScenarioError,
        compile_scenario,
    )

    if args.scenario_command == "list":
        print(f"{'scenario':22s}  {'cells':>5s}  {'trials':>6s}  description")
        print("-" * 78)
        for name, doc in BUILTIN_SCENARIOS.items():
            compiled = compile_scenario(doc)
            print(
                f"{name:22s}  {len(compiled.plan):5d}  "
                f"{compiled.plan.total_trials:6d}  {doc.description}"
            )
        return 0

    if args.scenario_command == "validate":
        status = 0
        for text in args.scenarios:
            try:
                compiled = compile_scenario(_resolve_scenario(text))
            except ScenarioError as error:
                print(f"{text}: INVALID — {error}")
                status = 1
                continue
            servable = sum(cell.servable for cell in compiled.cells)
            print(
                f"{text}: ok — {len(compiled.plan)} cells, "
                f"{compiled.plan.total_trials} trials, "
                f"{servable} servable"
            )
        return status

    # scenario run
    try:
        doc = _resolve_scenario(args.scenario)
        compiled = compile_scenario(doc, trials=args.trials, seed=args.seed)
    except ScenarioError as error:
        raise SystemExit(f"scenario: {error}") from None
    start = time.time()
    with use_engine(_build_engine(args)) as engine:
        try:
            results = engine.run_plan(compiled.plan)
        finally:
            engine.close()
        counters = engine.counters
    print(f"scenario {doc.name}: {doc.description}")
    print(
        f"{'cell':28s}  {'d (m)':>6s}  {'hour':>5s}  {'noise':>5s}  "
        f"{'mean |err| (cm)':>15s}  {'std (cm)':>8s}  {'not-present':>11s}"
    )
    print("-" * 92)
    for cell, meta in zip(results, compiled.cells):
        hour = "-" if meta.hour is None else f"{meta.hour:04.1f}"
        if cell.stats.n:
            mean = f"{cell.stats.mean_abs_cm():.1f}"
            std = f"{cell.stats.std_cm():.1f}"
        else:
            mean = std = "-"
        print(
            f"{meta.key:28s}  {meta.distance_m:6.2f}  {hour:>5s}  "
            f"{meta.noise_scale:5.2f}  {mean:>15s}  {std:>8s}  "
            f"{cell.stats.not_present:5d}/{cell.stats.trials}"
        )
    summary = format_throughput(
        counters.trials_executed,
        time.time() - start,
        cached_trials=counters.trials_cached,
    )
    print(f"\n[{doc.name} completed: {summary}]")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the streaming authentication service until interrupted.

    SIGINT/SIGTERM trigger a graceful drain: requests already streaming
    finish, new requests are answered ``busy``, the DSP threads shut
    down, and only then does the process exit.
    """
    import asyncio
    import signal

    def _banner(server: "asyncio.AbstractServer", suffix: str) -> None:
        for sock in server.sockets or ():
            host, port = sock.getsockname()[:2]
            print(
                f"serving PIANO authentication on {host}:{port} "
                f"({suffix}; JSON lines; Ctrl-C drains and stops)",
                file=sys.stderr,
            )

    async def run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)

        options = dict(
            max_inflight_rounds=args.max_inflight,
            dsp_timeout_s=args.dsp_timeout_s,
        )
        if args.workers > 1:
            # The router only frames and forwards: it never imports the
            # server stack, which each spawned worker loads for itself.
            from repro.service.shard import ShardedAuthServer

            front = ShardedAuthServer(
                args.workers,
                service_options=options,
                max_respawns=args.max_respawns,
                respawn_backoff_s=args.respawn_backoff_s,
            )
            async with front:
                server = await front.serve(args.host, args.port)
                _banner(server, f"{args.workers} shard workers")
                async with server:
                    await stop.wait()
                    print(
                        "\ndraining: finishing in-flight requests",
                        file=sys.stderr,
                    )
                    await front.drain()
        else:
            from repro.service.server import AuthService

            service = AuthService(**options)
            async with service:
                server = await service.serve(args.host, args.port)
                _banner(server, "single process")
                async with server:
                    await stop.wait()
                    print(
                        "\ndraining: finishing in-flight requests",
                        file=sys.stderr,
                    )
                    await service.drain()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    print("drained; bye", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        minimum = EXPERIMENTS[args.experiment].min_trials
        if args.trials is not None and args.trials < minimum:
            parser.error(
                f"argument --trials: must be >= {minimum} for "
                f"{args.experiment} (sigma_d is a spread), got {args.trials}"
            )
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "capture":
            return _cmd_capture(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        from repro.eval.engine import use_engine

        if args.command == "run":
            with use_engine(_build_engine(args)) as engine:
                try:
                    return _cmd_run(
                        args.experiment, args.trials, args.seed, args.quick
                    )
                finally:
                    engine.close()
        if args.command == "roc":
            with use_engine(_build_engine(args)) as engine:
                try:
                    return _cmd_roc(args)
                finally:
                    engine.close()
        if args.command == "run-all":
            status = 0
            start = time.time()
            with use_engine(_build_engine(args)) as engine:
                try:
                    for entry in list_experiments():
                        status |= _cmd_run(entry.name, None, args.seed, args.quick)
                        print()
                    totals = engine.counters
                    print(
                        "[run-all totals: "
                        + format_throughput(
                            totals.trials_executed,
                            time.time() - start,
                            cached_trials=totals.trials_cached,
                        )
                        + f", jobs={engine.jobs}]"
                    )
                finally:
                    engine.close()
            return status
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — not an error.
        return 0
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
