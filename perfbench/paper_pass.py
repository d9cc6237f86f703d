"""One ``paper`` pass in a fresh interpreter; spawned by ``paper.py``.

Prints ``ready`` once the engine exists (the parent times set-up up to
that line), regenerates every registered experiment in registry order on
one ``TrialEngine(jobs=2)`` with a cold cache, after each experiment
re-runs a seeded share of its rounds one session at a time (timing each
round), and prints one JSON object as its last line.  With
``--trace 1`` it also records engine/experiment spans and drives a
seeded sample of the pass's rounds through ``BatchedSessionRunner`` at
the engine's batch size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import sys
from time import perf_counter

JOBS = 2
#: Share of each experiment's rounds re-run one session at a time per
#: pass: 75 of a pass's 187 distinct rounds, so three passes give the
#: 200 latency samples a p95 needs.
RECHECK_SHARE = 0.4
#: Traced stage drive: rounds sampled, and the engine's stacked batch size.
STAGE_ROUNDS = 32
STAGE_BATCH = 16
#: Lines of a report that carry wall-clock figures; excluded from digests.
TIMING_LINE = re.compile(r"trials/s|completed:")


def report_digest(text: str) -> str:
    """SHA-256 of a report's text with timing lines removed."""
    kept = [line for line in text.splitlines() if not TIMING_LINE.search(line)]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _recheck(rounds, seed: int, pass_index: int, failures: dict[str, str]) -> list[float]:
    """Re-run this pass's share of ``rounds`` one session at a time.

    Check: ``run_cell_spec(batch_size=1)`` runs sessions this way, and it
    must reproduce the engine's stacked-batch outcomes exactly.  Each
    serial round is timed (the returned latencies, ms): the
    per-authentication latency of the reproduction.  The seed fixes one
    order over an experiment's rounds and pass i re-runs the i-th slice
    of it, so a run's passes together sample the rounds evenly.
    """
    from probes import canonical_digest
    from repro.eval.engine import build_trial_session

    if not rounds:
        return []
    count = round(RECHECK_SHARE * len(rounds))
    order = random.Random(f"perfbench:recheck:{seed}:{rounds[0][0]}").sample(rounds, len(rounds))
    latencies = []
    for offset in range(pass_index * count, (pass_index + 1) * count):
        experiment, spec, trial, expected = order[offset % len(order)]
        started = perf_counter()
        outcome = build_trial_session(spec, trial).run()
        latencies.append(1e3 * (perf_counter() - started))
        if canonical_digest(outcome) != canonical_digest(expected):
            failures[experiment] = f"trial {trial} of {spec.key!r} differs at batch_size=1"
    return latencies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--pass-index", type=int, default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    from host import tree_peak_rss_mb
    from probes import canonical_digest, drive_stages, stage_metrics
    from repro.dsp.backend import get_backend
    from repro.eval.engine import TrialEngine, use_engine
    from repro.eval.registry import list_experiments, run_experiment
    from tracing import Tracer, self_time_s

    tracer = Tracer(enabled=bool(args.trace), prefix="paper-")

    class RecordingEngine(TrialEngine):
        """Keeps every ``(spec, cell)`` it runs (for the checks) and spans its entry points."""

        def __init__(self, *a, **kw) -> None:
            super().__init__(*a, **kw)
            self.cells: list[tuple[object, object]] = []

        def run_plan(self, plan):
            with tracer.span("engine.run_plan"):
                results = super().run_plan(plan)
            self.cells.extend(zip(plan.specs, results))
            return results

        def run_cell(self, spec):
            with tracer.span("engine.run_cell"):
                cell = super().run_cell(spec)
            self.cells.append((spec, cell))
            return cell

        def map_tasks(self, fn, items, label="tasks", trials=None):
            with tracer.span("engine.map_tasks"):
                return super().map_tasks(fn, items, label=label, trials=trials)

    engine = RecordingEngine(jobs=JOBS)
    cpu_ready = _cpu_s()
    print("ready", flush=True)

    texts: dict[str, str] = {}
    failures: dict[str, str] = {}
    rounds: list[tuple] = []
    latencies_ms: list[float] = []
    seen: set[str] = set()
    pass_s = recheck_cpu_s = 0.0
    with use_engine(engine):
        for entry in list_experiments():
            first_cell = len(engine.cells)
            start = perf_counter()
            with tracer.span(f"experiment.{entry.name}"):
                report = run_experiment(entry.name, seed=args.seed, quick=True)
            pass_s += perf_counter() - start
            texts[entry.name] = report.to_text()
            new = []
            for spec, cell in engine.cells[first_cell:]:
                if spec.fingerprint() not in seen:
                    seen.add(spec.fingerprint())
                    new += [
                        (entry.name, spec, trial, expected)
                        for trial, expected in enumerate(cell.outcomes)
                    ]
            rounds += new
            # Between experiments, so the timed rounds sample the same
            # stretch of the run as the engine's throughput does.
            cpu_mark = _cpu_s()
            latencies_ms += _recheck(new, args.seed, args.pass_index, failures)
            recheck_cpu_s += _cpu_s() - cpu_mark
    rss_mb = tree_peak_rss_mb(os.getpid())
    engine.close()
    cpu_s = _cpu_s() - cpu_ready - recheck_cpu_s
    counters = engine.counters

    result = {
        "pass_s": pass_s,
        "cpu_s": cpu_s,
        "rss_mb": rss_mb,
        "trials_executed": counters.trials_executed,
        "trials_cached": counters.trials_cached,
        "plans": counters.plans,
        "digests": {name: report_digest(text) for name, text in texts.items()},
        "failures": failures,
        "latencies_ms": latencies_ms,
        "backend": get_backend().name,
    }

    if args.trace:
        spans = tracer.spans
        engine_names = {"engine.run_plan", "engine.run_cell", "engine.map_tasks"}
        result["engine_busy_s"] = sum(
            s.duration for s in spans if s.name in engine_names
        )
        result["experiments_self_s"] = sum(
            self_time_s(spans, [f"experiment.{n}" for n in texts]).values()
        )
        result["trace_cost_s"] = tracer.cost_s
        # Stage drive over a seeded sample of this pass's rounds.
        rng = random.Random(f"perfbench:stages:{args.seed}")
        sample = rng.sample(rounds, min(STAGE_ROUNDS, len(rounds)))
        stage_tracer = Tracer(prefix="stage-")
        outcomes, counts, batches = drive_stages(
            [(spec, trial) for _, spec, trial, _ in sample], STAGE_BATCH, stage_tracer
        )
        for (_, spec, trial, expected), got in zip(sample, outcomes):
            if canonical_digest(got) != canonical_digest(expected):
                failures["stage-drive"] = f"trial {trial} of {spec.key!r} differs"
        result["stage"] = {
            name: [m.value, m.n]
            for name, m in stage_metrics(stage_tracer, counts, batches, len(sample)).items()
        }
        tracer.spans.extend(stage_tracer.spans)
        if args.spans:
            tracer.write(args.spans)

    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
