"""Ablations over the design choices DESIGN.md §4 calls out (our extension).

The paper fixes θ = 5, α = 1 %, coarse/fine steps 1000/10, and
signal length 4096 without sensitivity analysis.  These sweeps show *why*
those are reasonable choices on the same substrate:

* **θ** — too small loses smoothed-out power (α check fails, range
  collapses); larger values are safe until aggregation windows collide;
* **coarse step** — larger steps scan fewer windows (cheaper) but lose
  localization robustness;
* **noise scale** — errors grow with the broadband floor, the mechanism
  behind the office→street ordering;
* **signal length** — shorter references are cheaper but noisier.

All four sweeps are described as one :class:`TrialPlan` (16 cells), so the
engine can spread the whole sensitivity analysis across workers at once.
"""

from __future__ import annotations

from repro.acoustics.environment import get_environment
from repro.core.config import ProtocolConfig
from repro.eval.engine import TrialPlan, TrialSpec, get_engine
from repro.eval.reporting import ExperimentReport
from repro.sim.rng import derive_seed

__all__ = ["run"]

_DISTANCE = 1.0


def _cell_summary(cell) -> tuple[str, str]:
    if cell.stats.n:
        return (
            f"{cell.stats.mean_abs_cm():.1f}",
            f"{cell.stats.not_present}/{cell.stats.trials}",
        )
    return "-", f"{cell.stats.not_present}/{cell.stats.trials}"


_THETAS = (1, 2, 3, 5, 8)
_COARSE_STEPS = (250, 500, 1000, 2000)
_NOISE_SCALES = (0.25, 1.0, 2.0, 4.0)
_SIGNAL_LENGTHS = (2048, 4096, 8192)


def _plan(trials: int, seed: int) -> TrialPlan:
    """All four sweeps at d = 1 m in the office, keyed per sweep point."""
    office = get_environment("office")
    specs = []
    for theta in _THETAS:
        specs.append(
            TrialSpec(
                environment="office",
                distance_m=_DISTANCE,
                n_trials=trials,
                seed=derive_seed(seed, f"theta:{theta}"),
                config=ProtocolConfig(theta=theta),
                key=f"theta:{theta}",
            )
        )
    for step in _COARSE_STEPS:
        specs.append(
            TrialSpec(
                environment="office",
                distance_m=_DISTANCE,
                n_trials=trials,
                seed=derive_seed(seed, f"step:{step}"),
                config=ProtocolConfig(
                    coarse_step=step, fine_radius=max(1200, step)
                ),
                key=f"coarse_step:{step}",
            )
        )
    for scale in _NOISE_SCALES:
        specs.append(
            TrialSpec(
                environment=office.with_noise_scale(scale),
                distance_m=_DISTANCE,
                n_trials=trials,
                seed=derive_seed(seed, f"noise:{scale}"),
                key=f"noise:{scale}",
            )
        )
    for length in _SIGNAL_LENGTHS:
        specs.append(
            TrialSpec(
                environment="office",
                distance_m=_DISTANCE,
                n_trials=trials,
                seed=derive_seed(seed, f"len:{length}"),
                config=ProtocolConfig(signal_length=length),
                key=f"signal_length:{length}",
            )
        )
    return TrialPlan("ablations", specs)


def run(trials: int = 8, seed: int = 0, quick: bool = False) -> ExperimentReport:
    """Run all four ablation sweeps at d = 1 m in the office."""
    if quick:
        trials = min(trials, 3)
    report = ExperimentReport(
        name="ablations", title="parameter sensitivity (reproduction extension)"
    )

    plan = _plan(trials, seed)
    cells = dict(zip((s.key for s in plan.specs), get_engine().run_plan(plan)))

    rows = []
    for theta in _THETAS:
        cell = cells[f"theta:{theta}"]
        err, bot = _cell_summary(cell)
        rows.append([theta, err, bot])
        report.data[f"theta:{theta}"] = cell.stats
    report.add_table(
        ["theta", "mean |err| (cm)", "not-present"],
        rows,
        title=f"frequency-smoothing width θ (paper: 5) at {_DISTANCE} m",
    )

    rows = []
    for step in _COARSE_STEPS:
        cell = cells[f"coarse_step:{step}"]
        err, bot = _cell_summary(cell)
        windows = 0
        oks = [o for o in cell.outcomes if o.auth_observation is not None]
        if oks:
            windows = int(
                sum(
                    o.auth_observation.own.windows_scanned
                    + o.auth_observation.remote.windows_scanned
                    for o in oks
                )
                / len(oks)
            )
        rows.append([step, err, bot, windows])
        report.data[f"coarse_step:{step}"] = cell.stats
    report.add()
    report.add_table(
        ["coarse step", "mean |err| (cm)", "not-present", "windows/auth"],
        rows,
        title="adaptive-scan coarse step (paper: 1000)",
    )

    rows = []
    for scale in _NOISE_SCALES:
        cell = cells[f"noise:{scale}"]
        err, bot = _cell_summary(cell)
        rows.append([f"×{scale:g}", err, bot])
        report.data[f"noise:{scale}"] = cell.stats
    report.add()
    report.add_table(
        ["noise scale", "mean |err| (cm)", "not-present"],
        rows,
        title="background-noise scale (office baseline)",
    )

    rows = []
    for length in _SIGNAL_LENGTHS:
        cell = cells[f"signal_length:{length}"]
        err, bot = _cell_summary(cell)
        rows.append([length, err, bot])
        report.data[f"signal_length:{length}"] = cell.stats
    report.add()
    report.add_table(
        ["signal length", "mean |err| (cm)", "not-present"],
        rows,
        title="reference-signal length (paper: 4096 ≈ 93 ms)",
    )
    return report
