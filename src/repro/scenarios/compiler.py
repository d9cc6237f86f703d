"""Lower a :class:`ScenarioDoc` into a :class:`TrialPlan` + request mix.

The compiler is a pure function of the document (plus optional
``trials``/``seed`` overrides): the same document compiles to the same
plan — same cell order, same keys, same fingerprints — in every process.
Two invariants make the lowering faithful:

* **Pair-frame worlds.**  The trial engine builds every world with the
  verifier at the origin and the prover at ``(distance, 0)``
  (:func:`repro.eval.engine.build_pair_world`).  The compiler therefore
  maps each (verifier, prover-position) pair through the rigid transform
  taking the verifier to the origin and the prover onto the +x axis, and
  pushes walls, attacker sources, and concurrent-session devices through
  the same transform — geometry between the pair is preserved exactly.
* **Paper parity.**  An *untimed* scenario (no re-auth cadence) lowers
  to exactly the hand-built tables: cell seed is the document seed, the
  cell key is ``{prefix}:{distance}``, and ``concurrent_pairs`` reuses
  :class:`repro.eval.trials.ConcurrentUsersInterference` verbatim — so
  the builtin paper scenes compile byte-identical to
  ``repro.eval.experiments.fig1_environments`` / ``fig2a_multiuser``
  (pinned in ``tests/test_scenario_dsl.py``).

*Timed* scenarios (``session.cadence_s > 0``) model continuous
re-authentication: each epoch advances the wall clock by the cadence,
resolves the noise profile at that hour, and derives its own cell seed
(``derive_seed(doc.seed, f"{doc.name}:{verifier}:t{epoch}")``) so every
re-authentication measures a fresh world.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.comms.bluetooth import DEFAULT_BLUETOOTH_RANGE_M
from repro.eval.engine import TrialPlan, TrialSpec
from repro.eval.trials import ConcurrentUsersInterference
from repro.scenarios.document import ScenarioDoc, ScenarioError
from repro.scenarios.interference import (
    ConcurrentSessionInterference,
    ScriptedAttacker,
)
from repro.sim.geometry import Point, Room, Wall
from repro.sim.rng import derive_seed

__all__ = ["CompiledCell", "CompiledScenario", "compile_scenario"]


def _clean(value: float) -> float:
    """Round away float-noise (and normalize ``-0.0``) in derived coords."""
    return round(value, 9) + 0.0


@dataclass(frozen=True)
class _PairFrame:
    """The rigid transform of one (verifier, prover) pair.

    World coordinates → the frame :func:`build_pair_world` builds in:
    verifier at the origin, prover at ``(distance, 0)``.
    """

    origin_x: float
    origin_y: float
    cos: float
    sin: float
    distance: float

    @staticmethod
    def between(
        verifier: tuple[float, float], prover: tuple[float, float]
    ) -> "_PairFrame":
        vx, vy = verifier
        px, py = prover
        d = math.hypot(px - vx, py - vy)
        if d <= 0.0:
            raise ScenarioError(
                f"verifier and prover coincide at ({vx}, {vy}); "
                "ranging needs a positive distance"
            )
        if d > DEFAULT_BLUETOOTH_RANGE_M:
            raise ScenarioError(
                f"prover at ({px}, {py}) is {d:g} m from its verifier, "
                f"beyond the {DEFAULT_BLUETOOTH_RANGE_M:g} m Bluetooth "
                "pairing range"
            )
        return _PairFrame(
            origin_x=vx,
            origin_y=vy,
            cos=(px - vx) / d,
            sin=(py - vy) / d,
            distance=_clean(d),
        )

    def to_frame(self, x: float, y: float) -> tuple[float, float]:
        dx = x - self.origin_x
        dy = y - self.origin_y
        return (
            _clean(self.cos * dx + self.sin * dy),
            _clean(-self.sin * dx + self.cos * dy),
        )


@dataclass(frozen=True)
class CompiledCell:
    """Metadata the compiler attaches to each plan cell (plan order)."""

    key: str
    verifier: str
    epoch: int
    hour: float | None
    distance_m: float
    environment: str
    noise_scale: float
    #: Expressible as a service :class:`~repro.service.protocol.RangingRequest`
    #: — preset environment, default config, no room or interference.
    servable: bool


@dataclass(frozen=True)
class CompiledScenario:
    """A lowered scenario: the plan plus per-cell metadata."""

    doc: ScenarioDoc
    plan: TrialPlan
    cells: tuple[CompiledCell, ...]

    def request_mix(self, rounds: int | None = None) -> list[dict]:
        """The scenario's servable cells as a loadgen request mix.

        Each servable cell becomes one
        :class:`~repro.service.loadgen.RequestCycler` item carrying the
        cell's environment preset, distance, and seed — so served
        traffic computes the very trials the compiled plan describes.
        ``rounds`` caps rounds per request (default: the cell's trial
        count).
        """
        mix = [
            {
                "environment": cell.environment,
                "distance_m": cell.distance_m,
                "seed": spec.seed,
                "rounds": rounds or spec.n_trials,
            }
            for cell, spec in zip(self.cells, self.plan.specs)
            if cell.servable
        ]
        if not mix:
            raise ScenarioError(
                f"scenario {self.doc.name!r} has no servable cells (preset "
                "environment, no walls/interference) to derive a request "
                "mix from"
            )
        return mix


def _epochs(doc: ScenarioDoc) -> list[tuple[tuple[float, float], float | None]]:
    """The prover's positions over the scenario, with epoch hours.

    Walk stations expand by their ``hold``; without a walk the prover
    stays at its fleet position for ``session.sessions`` epochs.  Timed
    scenarios stamp each epoch with the wall-clock hour the cadence puts
    it at; untimed epochs carry no hour (the scene is a measurement
    grid, not a deployment timeline).
    """
    if doc.walk:
        positions = [
            (station.x, station.y)
            for station in doc.walk
            for _ in range(station.hold)
        ]
    else:
        prover = doc.prover
        positions = [(prover.x, prover.y)] * doc.session.sessions
    if not doc.session.timed:
        return [(position, None) for position in positions]
    step_hours = doc.session.cadence_s / 3600.0
    return [
        (position, (doc.session.start_hour + epoch * step_hours) % 24.0)
        for epoch, position in enumerate(positions)
    ]


def _cell_environment(
    doc: ScenarioDoc, hour: float | None
) -> tuple[object, float]:
    """Resolve the cell's environment and noise scale at ``hour``.

    Scale 1.0 keeps the preset *name string* — fingerprint-equal to the
    hand-built experiments and servable over the wire.  A scaled band
    produces a derived :class:`Environment` (structural fingerprint,
    engine-only).
    """
    scale = 1.0 if hour is None else doc.noise_scale_at(hour)
    if scale == 1.0:
        return doc.environment, 1.0
    from repro.acoustics.environment import get_environment

    return get_environment(doc.environment).with_noise_scale(scale), scale


def _cell_room(doc: ScenarioDoc, frame: _PairFrame) -> Room | None:
    """The document's walls in the pair frame (``None`` when wall-free).

    ``None`` rather than an empty :class:`Room`: the spec fingerprint
    tokens differ ("none" vs the structural token), and the hand-built
    experiments pass ``room=None``.
    """
    if not doc.walls:
        return None
    walls = tuple(
        Wall(
            Point(*frame.to_frame(wall.x1, wall.y1)),
            Point(*frame.to_frame(wall.x2, wall.y2)),
            attenuation_db=wall.attenuation_db,
        )
        for wall in doc.walls
    )
    return Room(walls=walls)


def _cell_interference(
    doc: ScenarioDoc, frame: _PairFrame, verifier_name: str,
    prover_xy: tuple[float, float],
):
    """The cell's interference factory (``None`` when the scene is clean).

    At most one script is active per scenario, so no combinator is
    needed — and ``concurrent_pairs`` must lower to the *exact*
    :class:`ConcurrentUsersInterference` instance shape the Fig. 2(a)
    experiment uses, unwrapped, for fingerprint parity.
    """
    factories = []
    if doc.concurrent_pairs:
        factories.append(
            ConcurrentUsersInterference(n_other_pairs=doc.concurrent_pairs)
        )
    if doc.attacker is not None:
        by_name = {device.name: device for device in doc.fleet}
        source = by_name[doc.attacker.device]
        factories.append(
            ScriptedAttacker(
                position=frame.to_frame(source.x, source.y),
                bursts=doc.attacker.bursts,
                gain=doc.attacker.gain,
            )
        )
    if doc.concurrent_verifiers:
        others = tuple(
            (
                frame.to_frame(other.x, other.y),
                frame.to_frame(*prover_xy),
            )
            for other in doc.verifiers
            if other.name != verifier_name
        )
        factories.append(ConcurrentSessionInterference(pairs=others))
    if not factories:
        return None
    if len(factories) > 1:
        raise ScenarioError(
            f"scenario {doc.name!r} combines multiple interference "
            "scripts (concurrent_pairs / attacker / concurrent_verifiers); "
            "use one per scenario"
        )
    return factories[0]


def compile_scenario(
    doc: ScenarioDoc,
    trials: int | None = None,
    seed: int | None = None,
) -> CompiledScenario:
    """Deterministically lower ``doc`` into a plan + cell metadata.

    ``trials`` and ``seed`` override the document's values (the CLI's
    ``--trials`` / ``--seed``, and how smoke runs shrink workloads
    without editing documents).  Cells are emitted verifier-major, then
    in epoch order — single-verifier untimed documents therefore match
    the hand-built experiments' row order exactly.
    """
    trials = doc.trials if trials is None else trials
    root_seed = doc.seed if seed is None else seed
    if trials < 1:
        raise ScenarioError(f"trials must be >= 1, got {trials!r}")
    epochs = _epochs(doc)
    many_verifiers = len(doc.verifiers) > 1
    specs: list[TrialSpec] = []
    cells: list[CompiledCell] = []
    seen_keys: set[str] = set()
    for verifier in doc.verifiers:
        for epoch, (prover_xy, hour) in enumerate(epochs):
            frame = _PairFrame.between((verifier.x, verifier.y), prover_xy)
            environment, noise_scale = _cell_environment(doc, hour)
            room = _cell_room(doc, frame)
            interference = _cell_interference(
                doc, frame, verifier.name, prover_xy
            )
            parts = [doc.prefix]
            if many_verifiers:
                parts.append(verifier.name)
            if hour is None:
                cell_seed = root_seed
                parts.append(str(frame.distance))
            else:
                cell_seed = derive_seed(
                    root_seed, f"{doc.name}:{verifier.name}:t{epoch}"
                )
                parts.append(f"t{epoch:02d}")
            key = ":".join(parts)
            if key in seen_keys:
                raise ScenarioError(
                    f"scenario {doc.name!r} produces duplicate cell key "
                    f"{key!r} — untimed walks must visit distinct "
                    "distances (give the scenario a re-auth cadence to "
                    "revisit a station)"
                )
            seen_keys.add(key)
            specs.append(
                TrialSpec(
                    environment=environment,
                    distance_m=frame.distance,
                    n_trials=trials,
                    seed=cell_seed,
                    room=room,
                    interference_factory=interference,
                    key=key,
                )
            )
            cells.append(
                CompiledCell(
                    key=key,
                    verifier=verifier.name,
                    epoch=epoch,
                    hour=None if hour is None else round(hour, 6),
                    distance_m=frame.distance,
                    environment=doc.environment,
                    noise_scale=noise_scale,
                    servable=(
                        noise_scale == 1.0
                        and room is None
                        and interference is None
                    ),
                )
            )
    return CompiledScenario(
        doc=doc, plan=TrialPlan(doc.name, specs), cells=tuple(cells)
    )
