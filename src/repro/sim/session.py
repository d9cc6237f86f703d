"""One ACTION ranging session in the simulated world.

The session drives the six protocol steps end to end with realistic timing:

* Step I   — the authenticating device constructs S_A and S_V;
* Step II  — the signal descriptions cross the Bluetooth secure channel
  (random latency; out-of-range raises and becomes a deny);
* Step III — both devices record; each plays its reference after its own
  OS-dependent random audio-path latency (harmless to ACTION, fatal to the
  Echo baseline);
* Step IV  — each device runs the frequency-based detector on its capture;
* Step V   — the vouching device reports its local time difference;
* Step VI  — the authenticating device evaluates Eq. 3.

The work lives in :mod:`repro.sim.pipeline`: each step above is a typed,
pure stage (``negotiate`` → ``schedule`` → ``render`` → ``detect`` →
``exchange``) over frozen dataclasses, and :class:`RangingSession`
bundles a :class:`~repro.sim.pipeline.SessionContext` (``context``) with
its per-session RNG stream (``rng``) and diagnostics (``artifacts``);
:meth:`RangingSession.run` chains the stages and returns the round's
:class:`~repro.core.ranging.RangingOutcome`.  ``SessionTiming``,
``SessionArtifacts``, ``InterferenceProvider`` and
``radiated_reference_waveform`` re-export from the pipeline package.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.acoustics.environment import Environment
from repro.acoustics.propagation import PropagationModel
from repro.comms.bluetooth import BluetoothLink
from repro.core.ranging import RangingEngine, RangingOutcome
from repro.devices.battery import ComponentPower
from repro.devices.device import Device
from repro.sim.geometry import Room
from repro.sim.pipeline.stages import (
    InterferenceProvider,
    SessionArtifacts,
    SessionContext,
    SessionTiming,
    radiated_reference_waveform,
    run_staged,
)

__all__ = [
    "SessionTiming",
    "InterferenceProvider",
    "SessionArtifacts",
    "RangingSession",
    "radiated_reference_waveform",
]


class RangingSession:
    """Executes one ACTION round between two paired devices.

    A session is the pairing of an immutable
    :class:`~repro.sim.pipeline.SessionContext` with the per-session RNG
    stream; :meth:`run` chains the pipeline stages serially.  Batch
    execution hands the same (context, rng) pairs to a
    :class:`~repro.sim.pipeline.BatchedSessionRunner` instead — the
    outcomes are bit-identical either way.
    """

    def __init__(
        self,
        action: RangingEngine,
        link: BluetoothLink,
        auth_device: Device,
        vouch_device: Device,
        environment: Environment,
        room: Room,
        propagation: PropagationModel,
        rng: np.random.Generator,
        timing: SessionTiming | None = None,
        session_id: int = 0,
        interference: Sequence[InterferenceProvider] = (),
        component_power: ComponentPower | None = None,
    ) -> None:
        self.context = SessionContext(
            action=action,
            link=link,
            auth_device=auth_device,
            vouch_device=vouch_device,
            environment=environment,
            room=room,
            propagation=propagation,
            timing=timing or SessionTiming(),
            session_id=session_id,
            interference=tuple(interference),
            component_power=component_power or ComponentPower(),
        )
        self.rng = rng
        self.artifacts = SessionArtifacts()

    def run(self) -> RangingOutcome:
        """Execute the full round and return the Step-VI outcome."""
        return run_staged(self.context, self.rng, self.artifacts)
