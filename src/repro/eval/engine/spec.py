"""Declarative layer of the trial engine: what to run, not how.

Experiments *describe* their workload as :class:`TrialSpec` cells grouped
into a named :class:`TrialPlan`; the execution layer
(:mod:`repro.eval.engine.executor`) decides whether the plan runs in-process
or on a worker pool.  Because a spec is pure data, it can be

* **pickled** — shipped to a ``ProcessPoolExecutor`` worker unchanged;
* **fingerprinted** — content-addressed so identical cells requested by
  different experiments (e.g. the Fig. 1 office sweep and the σ_d
  measurement behind Tables I/II) are computed once per run;
* **replayed deterministically** — each trial's seed derives from the spec
  content with the same ``derive_seed`` keys the serial runner always
  used, so results are bit-identical regardless of worker count or
  execution order.
"""

from __future__ import annotations

import hashlib
import itertools
import types
import weakref
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Sequence

import numpy as np

from repro.acoustics.environment import Environment
from repro.core.config import ProtocolConfig
from repro.core.ranging import RangingEngine, RangingOutcome
from repro.eval.stats import ErrorStats
from repro.sim.geometry import Room
from repro.sim.rng import derive_seed
from repro.sim.session import InterferenceProvider
from repro.sim.world import AcousticWorld

__all__ = [
    "AUTH",
    "VOUCH",
    "InterferenceFactory",
    "TrialSpec",
    "TrialPlan",
    "CellResult",
    "fingerprint_value",
]

#: Canonical device names of the measured pair in every evaluation cell.
AUTH = "auth-device"
VOUCH = "vouch-device"

#: An interference factory receives the freshly built world and a dedicated
#: RNG, registers any extra devices it needs, and returns the providers the
#: session schedules (concurrent users, attackers, ...).  Factories embedded
#: in a :class:`TrialSpec` must be picklable — module-level classes with
#: ``__call__`` rather than closures.
InterferenceFactory = Callable[
    [AcousticWorld, np.random.Generator], Sequence[InterferenceProvider]
]


@dataclass
class CellResult:
    """Outcomes plus error statistics for one (environment, distance) cell."""

    environment: str
    distance_m: float
    outcomes: list[RangingOutcome] = field(default_factory=list)
    stats: ErrorStats = field(default_factory=ErrorStats)

    def add(self, outcome: RangingOutcome) -> None:
        """Append one trial's outcome and fold it into the error stats."""
        self.outcomes.append(outcome)
        if outcome.ok:
            self.stats.add(outcome.require_distance() - self.distance_m)
        else:
            self.stats.add_not_present()


# Closures/lambdas get a never-recycled per-instance token.  Bare id()
# would collide once the allocator reuses a freed address, silently
# serving one closure's cached results for another.
_callable_tokens: "weakref.WeakKeyDictionary[object, int]" = (
    weakref.WeakKeyDictionary()
)
_callable_counter = itertools.count()


def _unique_callable_token(value) -> int:
    try:
        token = _callable_tokens.get(value)
        if token is None:
            token = next(_callable_counter)
            _callable_tokens[value] = token
        return token
    except TypeError:  # pragma: no cover - non-weakref-able callable
        return id(value)


def fingerprint_value(value) -> str:
    """A stable, content-derived token for one spec field.

    Dataclasses fold in their class name and per-field tokens (covering
    :class:`Environment`, :class:`ProtocolConfig`, :class:`Room`, and
    picklable interference/engine objects alike); other objects fall back
    to ``repr``, which the simulator's value types keep deterministic.
    """
    if value is None:
        return "none"
    if is_dataclass(value) and not isinstance(value, type):
        parts = ",".join(
            f"{f.name}={fingerprint_value(getattr(value, f.name))}"
            for f in fields(value)
            if not f.name.startswith("_")
        )
        return f"{type(value).__qualname__}({parts})"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(fingerprint_value(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes())
        return f"ndarray:{value.dtype}:{value.shape}:{digest.hexdigest()[:16]}"
    if isinstance(value, (types.FunctionType, types.MethodType)):
        # Plain module-level functions are identified by where they live.
        # Lambdas and closures carry captured state the fingerprint cannot
        # see, so each instance gets a process-unique token — they never
        # share cache entries (correct, just uncached); use a module-level
        # dataclass with __call__ (e.g. ConcurrentUsersInterference) for
        # content-addressed factories.
        qualname = getattr(value, "__qualname__", repr(value))
        module = getattr(value, "__module__", "?")
        if isinstance(value, types.MethodType):
            # A bound method's behaviour depends on its instance's state —
            # ConcurrentUsersInterference(2).__call__ must not collide
            # with ConcurrentUsersInterference(5).__call__.
            bound = fingerprint_value(value.__self__)
            return f"callable:{module}.{qualname}@{bound}"
        if (
            getattr(value, "__closure__", None)
            or "<locals>" in qualname
            or "<lambda>" in qualname
        ):
            return (
                f"callable:{module}.{qualname}"
                f":instance={_unique_callable_token(value)}"
            )
        return f"callable:{module}.{qualname}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, str, bool)):
        return repr(value)
    if hasattr(value, "__dict__"):
        parts = ",".join(
            f"{k}={fingerprint_value(v)}"
            for k, v in sorted(vars(value).items())
            if not k.startswith("_")
        )
        return f"{type(value).__qualname__}({parts})"
    return repr(value)


def _environment_token(environment: Environment | str) -> str:
    """Environment fingerprint, name-normalized for registered presets.

    A spec built with ``"office"`` and one built with
    ``get_environment("office")`` describe the same computation; collapsing
    both to the preset name lets the cache serve one from the other.
    Modified environments (e.g. noise-scaled ablation copies) fall through
    to the structural fingerprint.
    """
    if isinstance(environment, str):
        return repr(environment)
    try:
        from repro.acoustics.environment import get_environment

        if get_environment(environment.name) == environment:
            return repr(environment.name)
    except KeyError:
        pass
    return fingerprint_value(environment)


@dataclass(frozen=True)
class TrialSpec:
    """One evaluation cell: ``n_trials`` ranging rounds at one distance.

    Parameters
    ----------
    environment:
        An :class:`Environment` or preset name.
    distance_m:
        True distance between the paired devices.
    n_trials:
        Independent rounds in this cell; each gets a fresh world.
    seed:
        Cell-level root seed.  Trial ``i`` derives
        ``derive_seed(seed, f"{env_name}:{distance_m}:{i}")`` — the exact
        key the serial runner has always used.
    config / room:
        Optional protocol and floor-plan overrides.
    interference_factory:
        Optional picklable factory for multi-user / attack playbacks.
    engine:
        Optional ranging-engine override (e.g. ACTION-CC).
    key:
        Free-form label experiments use to find this cell in the plan's
        results; not part of the fingerprint.
    """

    environment: Environment | str
    distance_m: float
    n_trials: int
    seed: int
    config: ProtocolConfig | None = None
    room: Room | None = None
    interference_factory: InterferenceFactory | None = None
    engine: RangingEngine | None = None
    key: str = ""

    @property
    def env_name(self) -> str:
        env = self.environment
        return env if isinstance(env, str) else env.name

    def trial_seed(self, trial: int) -> int:
        """The deterministic seed of trial ``trial`` within this cell."""
        return derive_seed(self.seed, f"{self.env_name}:{self.distance_m}:{trial}")

    def fingerprint(self) -> str:
        """Content hash identifying this cell's computation.

        Two specs with equal fingerprints produce bit-identical
        :class:`CellResult`\\ s, so the engine's cache can serve either
        from the other's computation.  ``key`` is presentation-only and
        deliberately excluded.
        """
        token = "|".join(
            (
                _environment_token(self.environment),
                repr(self.distance_m),
                repr(self.n_trials),
                repr(self.seed),
                fingerprint_value(self.config),
                fingerprint_value(self.room),
                fingerprint_value(self.interference_factory),
                fingerprint_value(self.engine),
            )
        )
        return hashlib.sha256(token.encode("utf-8")).hexdigest()[:32]


@dataclass(frozen=True)
class TrialPlan:
    """A named batch of cells an experiment wants evaluated."""

    name: str
    specs: tuple[TrialSpec, ...]

    def __init__(self, name: str, specs: Sequence[TrialSpec]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "specs", tuple(specs))

    @property
    def total_trials(self) -> int:
        return sum(spec.n_trials for spec in self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    @classmethod
    def merge(cls, name: str, plans: Sequence["TrialPlan"]) -> "TrialPlan":
        """Concatenate several plans into one, preserving cell order.

        Used to schedule related workloads (e.g. the four per-environment
        paper scenarios) as a single engine pass — the engine already
        dedupes identical cells, so merging never recomputes.
        """
        return cls(
            name, [spec for plan in plans for spec in plan.specs]
        )
