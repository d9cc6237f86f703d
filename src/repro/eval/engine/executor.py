"""Execution layer: run :class:`TrialPlan`\\ s serially or on a process pool.

The engine owns three responsibilities the experiments used to interleave
with their reporting code:

* **scheduling** — a plan's cells run in-process (``jobs=1``) or across a
  ``ProcessPoolExecutor`` with chunked dispatch, whichever the caller
  configured; results always come back in plan order;
* **determinism** — every trial seed derives from spec content
  (:meth:`TrialSpec.trial_seed`), never from execution order, so a plan
  produces bit-identical results for any worker count;
* **accounting** — per-plan wall-clock and trials/sec throughput feed the
  CLI summary lines and the perf trajectory.

Cells are memoized in the engine's :class:`MeasurementCache` under their
content fingerprint, so two experiments describing the same cell (the
Fig. 1 office sweep and the σ_d measurement, say) share one computation.
"""

from __future__ import annotations

import copy
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable, Sequence, TypeVar

from repro.acoustics.environment import Environment
from repro.core.config import ProtocolConfig
from repro.dsp.lanes import share_cpus
from repro.sim.geometry import Point, Room
from repro.sim.world import AcousticWorld

from repro.eval.engine.cache import MeasurementCache
from repro.eval.engine.spec import AUTH, VOUCH, CellResult, TrialPlan, TrialSpec
from repro.eval.reporting import format_throughput

__all__ = [
    "EngineCounters",
    "TrialEngine",
    "build_pair_world",
    "build_trial_session",
    "run_cell_spec",
]

_T = TypeVar("_T")


def build_pair_world(
    environment: Environment | str,
    distance_m: float,
    seed: int,
    config: ProtocolConfig | None = None,
    room: Room | None = None,
) -> AcousticWorld:
    """A world with one paired (authenticating, vouching) device pair.

    The authenticating device sits at the origin; the vouching device at
    ``(distance_m, 0)``.
    """
    world = AcousticWorld(
        config=config or ProtocolConfig(),
        environment=environment,
        room=room or Room.open_space(),
        seed=seed,
    )
    world.add_device(AUTH, Point(0.0, 0.0))
    world.add_device(VOUCH, Point(distance_m, 0.0))
    world.pair(AUTH, VOUCH)
    return world


def build_trial_session(spec: TrialSpec, trial: int):
    """Build trial ``trial`` of ``spec`` as a ready-to-run session.

    The single construction path every execution mode shares: a fresh
    world seeded ``spec.trial_seed(trial)``, the spec's interference
    providers, and one ranging session on the world's ``"session"``
    stream.  :func:`run_cell_spec` (CLI/engine trials) and the streaming
    service (``repro.service``) both call this, which is what makes a
    served decision bit-identical to the same trial run by the CLI.
    """
    world = build_pair_world(
        spec.environment,
        spec.distance_m,
        spec.trial_seed(trial),
        config=spec.config,
        room=spec.room,
    )
    providers: Sequence = ()
    if spec.interference_factory is not None:
        providers = spec.interference_factory(
            world, world.rngs.generator("interference")
        )
    return world.ranging_session(AUTH, VOUCH, providers, engine=spec.engine)


def run_cell_spec(spec: TrialSpec) -> CellResult:
    """Execute one cell: ``spec.n_trials`` independent ranging rounds.

    Module-level (picklable) so pool workers can run it; each trial gets a
    fresh world derived deterministically from the spec content.

    Trials run one session at a time (``RangingSession.run``), so a
    trial's world and its two capture buffers die before the next trial
    is built; the round's two captures still render and are observed on
    the process's DSP lanes.
    """
    cell = CellResult(environment=spec.env_name, distance_m=spec.distance_m)
    for trial in range(spec.n_trials):
        cell.add(build_trial_session(spec, trial).run())
    return cell


def _run_task_chunk(
    fn: Callable[[Any], Any], items: list[Any]
) -> list[Any]:
    """Worker entry point: one pickled batch of items per dispatch."""
    return [fn(item) for item in items]


@dataclass
class EngineCounters:
    """Cumulative accounting across everything an engine has run."""

    plans: int = 0
    cells_executed: int = 0
    cells_cached: int = 0
    trials_executed: int = 0
    trials_cached: int = 0
    tasks_executed: int = 0
    elapsed_s: float = 0.0

    def snapshot(self) -> "EngineCounters":
        return replace(self)

    def since(self, earlier: "EngineCounters") -> "EngineCounters":
        """Counter deltas accumulated after ``earlier`` was snapshotted."""
        return EngineCounters(
            plans=self.plans - earlier.plans,
            cells_executed=self.cells_executed - earlier.cells_executed,
            cells_cached=self.cells_cached - earlier.cells_cached,
            trials_executed=self.trials_executed - earlier.trials_executed,
            trials_cached=self.trials_cached - earlier.trials_cached,
            tasks_executed=self.tasks_executed - earlier.tasks_executed,
            elapsed_s=self.elapsed_s - earlier.elapsed_s,
        )

    @property
    def trials_per_s(self) -> float:
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.trials_executed / self.elapsed_s


class TrialEngine:
    """Runs trial plans serially or on a process pool, with caching.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` executes in-process, ``None`` means auto
        (``os.cpu_count()``).
    cache:
        Measurement cache (defaults to a fresh in-memory one).  Share one
        cache across experiments — as the CLI does for ``run-all`` — to
        deduplicate common measurements.
    progress:
        Optional callback receiving human-readable progress lines.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache: MeasurementCache | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        resolved = os.cpu_count() or 1 if jobs is None else jobs
        if resolved < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        self.jobs = resolved
        self.cache = cache if cache is not None else MeasurementCache()
        self.progress = progress
        self.counters = EngineCounters()
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "TrialEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _executor(self) -> ProcessPoolExecutor:
        # Each worker is one of ``jobs`` DSP processes on this host's CPUs,
        # so its DSP lanes (repro.dsp.lanes) take a 1/jobs share of them.
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=share_cpus, initargs=(self.jobs,)
            )
        return self._pool

    def _report(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    # ------------------------------------------------------------------
    # Plans of ranging cells
    # ------------------------------------------------------------------

    def run_plan(self, plan: TrialPlan) -> list[CellResult]:
        """Evaluate every cell of ``plan``; results in plan order.

        Cells already in the cache are served from it; the rest execute
        serially or on the pool.  Identical specs appearing twice in one
        plan are computed once.
        """
        start = perf_counter()
        results: list[CellResult | None] = [None] * len(plan.specs)
        keys = [f"cell:{spec.fingerprint()}" for spec in plan.specs]
        missing: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            found, value = self.cache.get(key)
            if found:
                results[index] = value
                self.counters.cells_cached += 1
                self.counters.trials_cached += plan.specs[index].n_trials
            else:
                missing.setdefault(key, []).append(index)
        cached = len(plan.specs) - sum(len(p) for p in missing.values())

        if missing:
            indices = [positions[0] for positions in missing.values()]
            computed = self._execute_specs(
                [plan.specs[i] for i in indices], plan.name
            )
            for key, cell in zip(missing, computed):
                self.cache.put(key, cell)
                first, *duplicates = missing[key]
                results[first] = cell
                for index in duplicates:
                    results[index] = copy.deepcopy(cell)
            self.counters.cells_executed += len(indices)
            self.counters.trials_executed += sum(
                plan.specs[i].n_trials for i in indices
            )

        elapsed = perf_counter() - start
        self.counters.plans += 1
        self.counters.elapsed_s += elapsed
        executed_trials = sum(
            plan.specs[i].n_trials
            for positions in missing.values()
            for i in positions[:1]
        )
        extra = f"{cached}/{len(plan.specs)} cells cached, jobs={self.jobs}"
        self._report(
            f"[{plan.name}] "
            + format_throughput(executed_trials, elapsed, extra=extra)
        )
        # Every slot must be filled: consumers zip results against
        # plan.specs, so a silent gap would misattribute every later cell.
        assert all(cell is not None for cell in results)
        return results  # type: ignore[return-value]

    def run_cell(self, spec: TrialSpec) -> CellResult:
        """Evaluate a single cell through the cache (always in-process)."""
        key = f"cell:{spec.fingerprint()}"
        found, value = self.cache.get(key)
        if found:
            self.counters.cells_cached += 1
            self.counters.trials_cached += spec.n_trials
            return value
        start = perf_counter()
        cell = run_cell_spec(spec)
        self.cache.put(key, cell)
        self.counters.cells_executed += 1
        self.counters.trials_executed += spec.n_trials
        self.counters.elapsed_s += perf_counter() - start
        return cell

    def _execute_specs(
        self, specs: list[TrialSpec], label: str
    ) -> list[CellResult]:
        if self.jobs == 1 or len(specs) == 1:
            return [run_cell_spec(spec) for spec in specs]
        parts = self._dispatch(
            self._chunk(specs), label, len(specs), run_cell_spec
        )
        return [cell for part in parts for cell in part]

    # ------------------------------------------------------------------
    # Generic trial batches (attacks, authentication loops, baselines)
    # ------------------------------------------------------------------

    def map_tasks(
        self,
        fn: Callable[[Any], _T],
        items: Sequence[Any],
        label: str = "tasks",
        trials: int | None = None,
    ) -> list[_T]:
        """Parallel-map a picklable, module-level ``fn`` over ``items``.

        The escape hatch for experiment workloads that are not ranging
        cells (attack trials, authentication loops, the Echo baseline).
        ``fn(item)`` must be deterministic given ``item`` — derive all
        randomness from seeds carried inside ``item``.  Results come back
        in input order; ``trials`` (default ``len(items)``) feeds the
        throughput accounting.
        """
        start = perf_counter()
        items = list(items)
        if self.jobs == 1 or len(items) <= 1:
            results = [fn(item) for item in items]
        else:
            chunks = self._chunk(items)
            parts = self._dispatch(chunks, label, len(items), fn)
            results = [value for part in parts for value in part]
        elapsed = perf_counter() - start
        n_trials = len(items) if trials is None else trials
        self.counters.tasks_executed += len(items)
        self.counters.trials_executed += n_trials
        self.counters.elapsed_s += elapsed
        self._report(
            f"[{label}] "
            + format_throughput(n_trials, elapsed, extra=f"jobs={self.jobs}")
        )
        return results

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------

    def _chunk(self, items: list[_T]) -> list[list[_T]]:
        """Split work into at most ``4 × jobs`` batches.

        One future per item maximizes balance but pays pickle and
        world-build overhead per dispatch; a handful of batches per worker
        keeps the pool busy while amortizing that cost.
        """
        size = max(1, len(items) // (self.jobs * 4))
        return [items[i : i + size] for i in range(0, len(items), size)]

    def _dispatch(
        self,
        chunks: list[list[Any]],
        label: str,
        total: int,
        fn: Callable[[Any], Any],
    ) -> list[list[Any]]:
        """Map ``fn`` over chunks on the pool in order; report completions."""
        pool = self._executor()
        futures = {
            pool.submit(_run_task_chunk, fn, chunk): position
            for position, chunk in enumerate(chunks)
        }
        parts: list[list[Any] | None] = [None] * len(chunks)
        done_items = 0
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                position = futures[future]
                parts[position] = future.result()
                done_items += len(chunks[position])
                if len(chunks) > 1:
                    self._report(
                        f"[{label}] {done_items}/{total} cells done"
                    )
        assert all(part is not None for part in parts)
        return parts  # type: ignore[return-value]
