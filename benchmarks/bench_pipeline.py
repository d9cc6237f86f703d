"""Hot-path throughput: the pipeline against the pre-refactor loop.

Measures single-process trials/sec on a Fig. 1-style plan (four
environments × four distances) for

* ``pre_refactor_per_session`` — the monolithic session loop with the
  original detector hot path (two-sided FFT over a full sliding-window
  view, all bins materialized), i.e. the engine as it existed before the
  staged-pipeline refactor;
* ``staged_per_session`` — ``RangingSession.run()`` (the stage runner at
  B = 1), one session at a time, as the trial engine runs them.

Both variants run with this process's DSP lanes
(``repro.dsp.lanes``: one per CPU).  The document additionally records a
per-stage wall-clock split (RNG-bound prepare, render, detect, decide)
of the same plan, one session at a time through
:class:`BatchedSessionRunner`'s stage accounting.

A **lanes** section times one round at a time (``RangingSession.run``)
at 1 and 2 DSP lanes, in interleaved blocks over the same rounds, after
keeping every CPU busy for :data:`WARMUP_S` seconds (a second vCPU can
run at about half speed for its first second after idling, which would
bias whichever lane count ran first), and records p50/p95 latency per
lane count with the host's ``cpus``.  Served throughput and
latency are measured by the benchmark contract instead (``perfbench/``,
workloads ``serve-light`` and ``serve-hot``).

A **process_start** section starts :data:`PROCESS_STARTS` fresh
interpreters (after warming every CPU and one unmeasured start that
byte-compiles the package) and records the median seconds they take to
import what a DSP process imports (``repro.service.server``,
``repro.eval.engine``) and their median peak resident set (``VmHWM``)
after one round.

A **roc_sweep** section measures the decide seam's amortization
(:mod:`repro.eval.sweep`): a 16-threshold × all-scenes ROC sweep off
one render set versus naively re-rendering the scene matrix per
threshold, with render-call counts proving the sweep performs zero
renders beyond the single-threshold case.

Run as a script to (re)generate ``BENCH_pipeline.json`` at the
repository root so the perf trajectory of the hot path is tracked
in-tree::

    PYTHONPATH=src python benchmarks/bench_pipeline.py [--trials N] [--reps R]

or under the benchmark harness: ``pytest benchmarks/bench_pipeline.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from repro.acoustics.environment import FIGURE1_ENVIRONMENTS
from repro.core.detection import FrequencyDetector
from repro.dsp.lanes import lane_count, share_cpus
from repro.eval.engine import (
    AUTH,
    VOUCH,
    TrialSpec,
    build_pair_world,
    build_trial_session,
)
from repro.sim.pipeline import BatchedSessionRunner, run_monolithic

_DISTANCES = (0.5, 1.0, 1.5, 2.0)
#: Lane counts the lanes section compares, and its interleaved blocks.
LANE_COUNTS = (1, 2)
LANE_BLOCKS = 4
#: Seconds every CPU spins before multi-core timing starts.
WARMUP_S = 2.0
#: Fresh interpreters the process_start section measures.
PROCESS_STARTS = 5

#: One DSP process's start: its imports, then one round.
_PROCESS_START_SCRIPT = """
import json, time
start = time.perf_counter()
import repro.service.server, repro.eval.engine
import_s = time.perf_counter() - start
from repro.eval.engine import TrialSpec, build_trial_session
build_trial_session(TrialSpec("office", 1.0, 1, 0), 0).run()
with open("/proc/self/status") as status:
    hwm_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"import_s": import_s, "vmhwm_mib": hwm_kib / 1024}))
"""


def _fig1_specs(trials: int) -> list[TrialSpec]:
    return [
        TrialSpec(
            environment=environment,
            distance_m=distance,
            n_trials=trials,
            seed=0,
        )
        for environment in FIGURE1_ENVIRONMENTS
        for distance in _DISTANCES
    ]


def _build_sessions(spec: TrialSpec):
    sessions = []
    for trial in range(spec.n_trials):
        world = build_pair_world(
            spec.environment, spec.distance_m, spec.trial_seed(trial)
        )
        sessions.append(world.ranging_session(AUTH, VOUCH))
    return sessions


def _run_plan(specs, executor) -> float:
    """Seconds to run the whole plan; session building stays off the clock."""
    prepared = [_build_sessions(spec) for spec in specs]
    start = perf_counter()
    for sessions in prepared:
        executor(sessions)
    return perf_counter() - start


def _measure(specs, executor, reps: int) -> dict:
    """Best-of-``reps`` throughput (the host's scheduler noise is large)."""
    total_trials = sum(spec.n_trials for spec in specs)
    best_elapsed = min(_run_plan(specs, executor) for _ in range(reps))
    return {
        "trials": total_trials,
        "seconds": round(best_elapsed, 4),
        "trials_per_s": round(total_trials / best_elapsed, 3),
    }


def _pre_refactor_executor(sessions):
    return [run_monolithic(s.context, s.rng) for s in sessions]


def _measure_stages(specs) -> dict:
    """Per-stage wall-clock split of one pass, one session at a time."""
    timings: dict[str, float] = {}
    runner = BatchedSessionRunner(1, stage_timings=timings)
    _run_plan(specs, runner.run)
    total = sum(timings.values())
    return {
        "seconds": {k: round(v, 4) for k, v in timings.items()},
        "fraction": {
            k: round(v / total, 3) for k, v in timings.items()
        }
        if total
        else {},
    }


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def warm_cpus(seconds: float = WARMUP_S) -> None:
    """Keep every CPU of this process busy for ``seconds``.

    A host whose idle vCPUs clock down runs a freshly woken one at a
    fraction of its speed for up to a second, so multi-core timings
    start only after every CPU has worked for a while.
    """
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor

    batch = np.random.default_rng(0).normal(size=(240, 4096))

    def spin(_):
        end = perf_counter() + seconds
        while perf_counter() < end:
            np.fft.rfft(batch)

    with ThreadPoolExecutor(_cpus()) as pool:
        list(pool.map(spin, range(_cpus())))


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _measure_lanes(specs) -> dict:
    """One-round latency at each of :data:`LANE_COUNTS` DSP lanes.

    The lane count is set the way a tier sets it, by declaring how many
    DSP processes share this process's CPUs (``share_cpus``).  Blocks
    alternate which lane count runs first; every block runs the same
    rounds at each count, and their outcomes must agree.
    """
    rounds = [(spec, trial) for spec in specs for trial in range(spec.n_trials)]
    latencies: dict[int, list[float]] = {count: [] for count in LANE_COUNTS}
    lanes_used: dict[int, int] = {}
    warm_cpus()
    try:
        for block in range(LANE_BLOCKS):
            order = LANE_COUNTS if block % 2 == 0 else LANE_COUNTS[::-1]
            outcomes = []
            for count in order:
                share_cpus(max(1, _cpus() // count))
                lanes_used[count] = lane_count()
                block_outcomes = []
                for spec, trial in rounds:
                    session = build_trial_session(spec, trial)
                    start = perf_counter()
                    block_outcomes.append(session.run())
                    latencies[count].append(1e3 * (perf_counter() - start))
                outcomes.append(block_outcomes)
            assert all(other == outcomes[0] for other in outcomes), (
                "outcomes differ between lane counts"
            )
    finally:
        share_cpus(1)
    section = {
        "cpus": _cpus(),
        "warmup_s": WARMUP_S,
        "blocks": LANE_BLOCKS,
        "rounds_per_block": len(rounds),
    }
    for count in LANE_COUNTS:
        section[f"lanes_{count}"] = {
            "lanes": lanes_used[count],
            "rounds": len(latencies[count]),
            "p50_ms": round(_percentile(latencies[count], 0.50), 2),
            "p95_ms": round(_percentile(latencies[count], 0.95), 2),
        }
    one, most = section[f"lanes_{LANE_COUNTS[0]}"], section[f"lanes_{LANE_COUNTS[-1]}"]
    section["p50_speedup"] = round(one["p50_ms"] / most["p50_ms"], 2)
    return section


def _measure_process_start(starts: int = PROCESS_STARTS) -> dict:
    """Median import seconds and peak RSS of fresh DSP processes.

    The children may write bytecode, so the unmeasured first start
    leaves the package compiled, as an installed one is.  Every CPU is
    warmed first: a start on a freshly woken vCPU reads ~40 % slower.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(src)

    def start() -> dict:
        result = subprocess.run(
            [sys.executable, "-c", _PROCESS_START_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        return json.loads(result.stdout)

    warm_cpus()
    start()
    runs = [start() for _ in range(starts)]
    return {
        "starts": starts,
        "imports": ["repro.service.server", "repro.eval.engine"],
        "import_s": round(statistics.median(r["import_s"] for r in runs), 3),
        "vmhwm_mib_after_round": round(
            statistics.median(r["vmhwm_mib"] for r in runs), 1
        ),
    }


def _measure_roc_sweep(trials: int, seed: int = 0) -> dict:
    """One-render-set ROC sweep vs naive per-threshold re-rendering.

    Three runs over the σ-measurement scene matrix (20 cells), each on a
    fresh serial engine with a fresh cache so render work is attributed
    honestly: the full 16-threshold sweep, a 1-threshold sweep (render
    parity check via the pipeline's render-call counters), and a naive
    baseline that re-runs the whole matrix once per threshold — what ROC
    generation cost before the decide seam.
    """
    from repro.eval.engine import TrialEngine, use_engine
    from repro.eval.sweep import DEFAULT_ROC_THRESHOLDS, run_roc_sweep
    from repro.sim.pipeline import (
        render_call_counts,
        reset_render_call_counts,
    )

    thresholds = DEFAULT_ROC_THRESHOLDS

    def timed(threshold_grid):
        engine = TrialEngine(jobs=1)
        reset_render_call_counts()
        start = perf_counter()
        with use_engine(engine):
            sweep = run_roc_sweep(
                trials=trials, seed=seed, thresholds=threshold_grid
            )
        elapsed = perf_counter() - start
        engine.close()
        return sweep, elapsed, render_call_counts()

    sweep, sweep_seconds, sweep_renders = timed(thresholds)
    _, single_seconds, single_renders = timed((thresholds[0],))

    reset_render_call_counts()
    naive_start = perf_counter()
    for threshold in thresholds:
        engine = TrialEngine(jobs=1)
        with use_engine(engine):
            run_roc_sweep(trials=trials, seed=seed, thresholds=(threshold,))
        engine.close()
    naive_seconds = perf_counter() - naive_start
    naive_renders = render_call_counts()

    return {
        "thresholds": len(thresholds),
        "threshold_grid_m": list(thresholds),
        "scenes": len(sweep.scenes),
        "trials_per_cell": trials,
        "rounds": sweep.rounds,
        "decisions": sweep.decisions,
        "sweep_t16": {
            "seconds": round(sweep_seconds, 4),
            "trials_per_s": round(sweep.rounds / sweep_seconds, 3),
            "renders": sweep_renders,
        },
        "sweep_t1": {
            "seconds": round(single_seconds, 4),
            "renders": single_renders,
        },
        "naive_per_threshold_t16": {
            "seconds": round(naive_seconds, 4),
            "trials_per_s": round(sweep.rounds / naive_seconds, 3),
            "renders": naive_renders,
        },
        "speedup_vs_naive": round(naive_seconds / sweep_seconds, 2),
        "zero_extra_renders_vs_t1": sweep_renders == single_renders,
    }


def run_benchmark(trials: int = 2, reps: int = 2) -> dict:
    """Measure every variant; returns the JSON-ready result document."""
    specs = _fig1_specs(trials)
    results = {}

    original = FrequencyDetector.candidate_powers
    FrequencyDetector.candidate_powers = (
        FrequencyDetector.candidate_powers_reference
    )
    try:
        results["pre_refactor_per_session"] = _measure(
            specs, _pre_refactor_executor, reps
        )
    finally:
        FrequencyDetector.candidate_powers = original

    results["staged_per_session"] = _measure(
        specs, lambda sessions: [s.run() for s in sessions], reps
    )
    stages = _measure_stages(specs)
    process_start = _measure_process_start()
    roc_sweep = _measure_roc_sweep(trials)
    lanes = _measure_lanes(specs)

    def _rate(name):
        return results[name]["trials_per_s"]

    return {
        "plan": {
            "style": "fig1",
            "environments": [e.name for e in FIGURE1_ENVIRONMENTS],
            "distances_m": list(_DISTANCES),
            "trials_per_cell": trials,
        },
        "reps": reps,
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "results": results,
        "stages": stages,
        "process_start": process_start,
        "roc_sweep": roc_sweep,
        "lanes": lanes,
        "speedups": {
            "staged_vs_pre_refactor": round(
                _rate("staged_per_session") / _rate("pre_refactor_per_session"), 2
            ),
        },
        "notes": (
            "single-process, one DSP lane per CPU; "
            "pre_refactor_per_session swaps candidate_powers for the "
            "preserved reference implementation; stage split (one "
            "session at a time): prepare = "
            "RNG-bound negotiate/schedule/render_noise, render = arrival "
            "phase, detect = window scans, both one capture per lane; "
            "process_start is the median over fresh interpreters of the "
            "import seconds of repro.service.server and repro.eval.engine "
            "and of VmHWM after one round; roc_sweep rows measure the "
            "decide seam (repro.eval.sweep): a 16-threshold sweep decides "
            "every threshold off one render set, vs re-rendering the scene matrix per threshold; lanes "
            "times one round at a time at 1 and 2 lanes, interleaved, "
            "after warming every CPU"
        ),
    }


def test_pipeline_throughput(benchmark, quick):
    document = benchmark.pedantic(
        lambda: run_benchmark(trials=2 if quick else 4, reps=1),
        rounds=1,
        iterations=1,
    )
    print()
    print(json.dumps(document["results"], indent=2))
    print("speedups:", document["speedups"])
    print("roc_sweep:", json.dumps(document["roc_sweep"], indent=2))
    print("lanes:", json.dumps(document["lanes"], indent=2))
    print("process_start:", json.dumps(document["process_start"], indent=2))
    assert document["speedups"]["staged_vs_pre_refactor"] > 1.0
    roc = document["roc_sweep"]
    assert roc["zero_extra_renders_vs_t1"], (
        "T=16 sweep rendered more than T=1: "
        f"{roc['sweep_t16']['renders']} vs {roc['sweep_t1']['renders']}"
    )
    assert roc["speedup_vs_naive"] >= 5.0, roc["speedup_vs_naive"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=2, help="trials per cell")
    parser.add_argument("--reps", type=int, default=2, help="best-of repetitions")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"),
        help="where to write the JSON document",
    )
    args = parser.parse_args()
    document = run_benchmark(trials=args.trials, reps=args.reps)
    Path(args.output).write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(document, indent=2))
    print(f"\nwritten to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
