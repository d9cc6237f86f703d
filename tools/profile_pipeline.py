"""Hot-list profiler for the ranging pipeline.

It runs a small Fig. 1-style plan one session at a time through
``BatchedSessionRunner(1)`` — the runner every ``RangingSession.run``
uses, so exactly the trial engine's configuration — with stage timing,
and prints either

* ``--mode wall`` (default) — the runner's per-stage wall-clock split
  (prepare / render / detect / decide) plus throughput, with negligible
  overhead, followed by a ``policy`` row timing a 16-threshold
  decision fan-out over the produced evidence (the decide seam's
  policy phase — what an ROC sweep adds on top of one render set), or
* ``--mode cumulative`` — a cProfile cumulative-time hot list, the view
  that surfaced the window-gather copies, the per-buffer Butterworth
  redesign, and the per-tone ``np.sin`` loop.

Both modes first keep every CPU busy for ~2 s (a second vCPU can run at
about half speed for its first second after idling) and print the
process's DSP lane count, since each capture's DSP runs on a lane.

Examples
--------
::

    PYTHONPATH=src python tools/profile_pipeline.py
    PYTHONPATH=src python tools/profile_pipeline.py --mode cumulative --limit 25
    PYTHONPATH=src python tools/profile_pipeline.py --trials 8
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path
from time import perf_counter

from repro.core.decisions import ThresholdGridPolicy
from repro.dsp.lanes import lane_count
from repro.eval.engine import AUTH, VOUCH, build_pair_world
from repro.eval.sweep import DEFAULT_ROC_THRESHOLDS
from repro.sim.pipeline import BatchedSessionRunner

# The plan and the CPU warm-up are the pipeline benchmark's, wherever
# this script is started from.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.bench_pipeline import _fig1_specs, warm_cpus  # noqa: E402


def _build_plan(trials: int):
    sessions_per_spec = []
    for spec in _fig1_specs(trials):
        sessions = []
        for trial in range(spec.n_trials):
            world = build_pair_world(
                spec.environment, spec.distance_m, spec.trial_seed(trial)
            )
            sessions.append(world.ranging_session(AUTH, VOUCH))
        sessions_per_spec.append(sessions)
    return sessions_per_spec


def _run(plan, runner):
    outcomes = []
    start = perf_counter()
    for sessions in plan:
        outcomes.extend(runner.run(sessions))
    return perf_counter() - start, outcomes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=4, help="trials per cell")
    parser.add_argument(
        "--mode",
        choices=("wall", "cumulative"),
        default="wall",
        help="wall: per-stage split; cumulative: cProfile hot list",
    )
    parser.add_argument(
        "--limit", type=int, default=30, help="rows of the cumulative hot list"
    )
    args = parser.parse_args()

    plan = _build_plan(args.trials)
    n_trials = sum(len(sessions) for sessions in plan)
    print(
        f"plan: fig1 x {args.trials} trials/cell = {n_trials} trials, "
        f"one session at a time, lanes={lane_count()}"
    )
    warm_cpus()

    if args.mode == "wall":
        timings: dict[str, float] = {}
        elapsed, outcomes = _run(
            plan, BatchedSessionRunner(1, stage_timings=timings)
        )
        # The decide seam's policy phase: fan every round's evidence
        # across a 16-threshold grid, timed as its own row so the cost
        # an ROC sweep adds on top of one render set is visible.
        grid = ThresholdGridPolicy(DEFAULT_ROC_THRESHOLDS)
        policy_start = perf_counter()
        for outcome in outcomes:
            grid.decide(outcome)
        policy_seconds = perf_counter() - policy_start
        print(f"total {elapsed:.3f}s = {n_trials / elapsed:.1f} trials/s")
        for stage in ("prepare", "render", "detect", "decide"):
            seconds = timings.get(stage, 0.0)
            print(f"  {stage:8s} {seconds:7.3f}s  {100 * seconds / elapsed:5.1f}%")
        print(
            f"  {'policy':8s} {policy_seconds:7.3f}s  "
            f"{100 * policy_seconds / elapsed:5.1f}%"
            f"  ({len(DEFAULT_ROC_THRESHOLDS)}-threshold fan-out, "
            f"{len(outcomes) * len(DEFAULT_ROC_THRESHOLDS)} decisions)"
        )
        return 0

    runner = BatchedSessionRunner(1)
    profile = cProfile.Profile()
    profile.enable()
    elapsed, _ = _run(plan, runner)
    profile.disable()
    print(f"total {elapsed:.3f}s = {n_trials / elapsed:.1f} trials/s (profiled)")
    pstats.Stats(profile).sort_stats("cumulative").print_stats(args.limit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
