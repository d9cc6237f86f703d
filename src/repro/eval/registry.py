"""Registry of all reproducible experiments (CLI and benches dispatch here).

Every entry maps an experiment id to the paper artifact it regenerates and
the module whose ``run(trials=..., seed=..., quick=...) -> ExperimentReport``
regenerates it.  Entries name modules rather than functions, so importing
the registry loads no simulator code: the CLI's parser and ``repro list``
read it for free, and :func:`run_experiment` imports a runner's module on
first use.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.eval.reporting import ExperimentReport

__all__ = ["EXPERIMENTS", "ExperimentEntry", "run_experiment", "list_experiments"]


@dataclass(frozen=True)
class ExperimentEntry:
    """One registered experiment; ``module`` defines its ``run``.

    ``min_trials`` is the fewest trials per cell the experiment can
    report from: 2 where it pools σ_d, a spread (``repro run`` rejects
    fewer).
    """

    name: str
    paper_artifact: str
    description: str
    module: str
    default_trials: int
    min_trials: int = 1


EXPERIMENTS: dict[str, ExperimentEntry] = {
    entry.name: entry
    for entry in (
        ExperimentEntry(
            "fig1",
            "Figure 1(a-d)",
            "distance-estimation errors in office/home/street/restaurant",
            "repro.eval.experiments.fig1_environments",
            10,
            min_trials=2,
        ),
        ExperimentEntry(
            "fig2a",
            "Figure 2(a)",
            "three concurrent PIANO users in a shared office",
            "repro.eval.experiments.fig2a_multiuser",
            10,
        ),
        ExperimentEntry(
            "fig2b",
            "Figure 2(b)",
            "ACTION vs ACTION-CC vs Echo-Secure accuracy",
            "repro.eval.experiments.fig2b_comparison",
            10,
        ),
        ExperimentEntry(
            "table1",
            "Table I",
            "false rejection rates per scenario and threshold",
            "repro.eval.experiments.table1_frr",
            10,
            min_trials=2,
        ),
        ExperimentEntry(
            "table2",
            "Table II",
            "false acceptance rates per scenario and threshold",
            "repro.eval.experiments.table2_far",
            10,
            min_trials=2,
        ),
        ExperimentEntry(
            "wall",
            "§VI-B (wall)",
            "wall-separated devices are denied",
            "repro.eval.experiments.wall_study",
            10,
        ),
        ExperimentEntry(
            "range_limit",
            "§VI-B (d_s)",
            "maximum acoustic detection range sweep",
            "repro.eval.experiments.range_limit",
            10,
        ),
        ExperimentEntry(
            "efficiency",
            "§VI-D",
            "latency and energy per authentication",
            "repro.eval.experiments.efficiency",
            20,
        ),
        ExperimentEntry(
            "security",
            "§V + §VI-E",
            "spoofing-attack trials and analytic guessing bounds",
            "repro.eval.experiments.security",
            100,
        ),
        ExperimentEntry(
            "ablations",
            "extension",
            "sensitivity sweeps over θ, scan step, noise, signal length",
            "repro.eval.experiments.ablations",
            8,
        ),
    )
}


def run_experiment(
    name: str, trials: int | None = None, seed: int = 0, quick: bool = False
) -> ExperimentReport:
    """Run a registered experiment by id.

    The experiment executes on the ambient
    :class:`~repro.eval.engine.TrialEngine`; its wall-clock and trial
    accounting land in ``report.data`` under ``engine:*`` keys (the CLI
    prints them as the per-experiment summary line).
    """
    try:
        entry = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None
    from repro.eval.engine import get_engine

    run = importlib.import_module(entry.module).run
    engine = get_engine()
    before = engine.counters.snapshot()
    start = perf_counter()
    report = run(
        trials=trials if trials is not None else entry.default_trials,
        seed=seed,
        quick=quick,
    )
    elapsed = perf_counter() - start
    delta = engine.counters.since(before)
    report.data["engine:elapsed_s"] = elapsed
    report.data["engine:trials_executed"] = delta.trials_executed
    report.data["engine:trials_cached"] = delta.trials_cached
    report.data["engine:trials_per_s"] = (
        delta.trials_executed / elapsed if elapsed > 0 else 0.0
    )
    report.data["engine:jobs"] = engine.jobs
    return report


def list_experiments() -> list[ExperimentEntry]:
    """All registered experiments in registration order."""
    return list(EXPERIMENTS.values())
