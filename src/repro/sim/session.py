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
pure stage (``negotiate`` → ``schedule`` → ``render_noise`` /
``render_arrivals`` → ``detect`` → ``exchange``) over frozen
dataclasses.  A :class:`RangingSession` is a
:class:`~repro.sim.pipeline.SessionContext` (``context``) paired with
its per-session RNG stream (``rng``);
:meth:`RangingSession.run` is the one in-process round runner,
:class:`~repro.sim.pipeline.BatchedSessionRunner`, at B = 1, and
returns the round's :class:`~repro.core.ranging.RangingOutcome`.
:meth:`repro.sim.world.AcousticWorld.ranging_session` builds sessions.
``SessionTiming``, ``InterferenceProvider`` and
``radiated_reference_waveform`` re-export from the pipeline package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ranging import RangingOutcome
from repro.sim.pipeline.batch import BatchedSessionRunner
from repro.sim.pipeline.stages import (
    InterferenceProvider,
    SessionContext,
    SessionTiming,
    radiated_reference_waveform,
)

__all__ = [
    "SessionTiming",
    "InterferenceProvider",
    "RangingSession",
    "radiated_reference_waveform",
]


@dataclass(frozen=True)
class RangingSession:
    """One ACTION round between two paired devices, ready to run.

    The pairing of an immutable
    :class:`~repro.sim.pipeline.SessionContext` with the per-session RNG
    stream.  :meth:`run` hands it to a one-session
    :class:`~repro.sim.pipeline.BatchedSessionRunner`; a larger batch of
    sessions gives bit-identical outcomes.
    """

    context: SessionContext
    rng: np.random.Generator

    def run(self) -> RangingOutcome:
        """Execute the full round and return the Step-VI outcome."""
        return BatchedSessionRunner(1).run([self])[0]
