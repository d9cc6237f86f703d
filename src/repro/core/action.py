"""ACTION — the paper's distance-estimation protocol (§IV), substrate-free.

This module holds the *protocol logic* of ACTION's six steps — signal
construction (I), detection (IV), and distance computation (VI) — as pure
functions over sample buffers.  The acoustic I/O (III) and the Bluetooth
exchange (II, V) are supplied by an orchestrator: in this repository that is
:class:`repro.sim.session.RangingSession`, which drives real(istic) devices
in the simulated world; the same logic would drive actual hardware.

Separating logic from I/O keeps the paper's algorithms directly testable:
the unit tests feed synthetic recordings straight into :meth:`observe` and
:meth:`finalize` without standing up a world.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.detection import (
    DetectionResult,
    FrequencyDetector,
    SignalHypothesis,
)
from repro.core.frequencies import build_frequency_plan
from repro.core.ranging import (
    DeviceObservation,
    RangingOutcome,
    RangingStatus,
)
from repro.core.signal_construction import (
    ReferenceSignal,
    construct_reference_signal,
)

__all__ = ["SignalPair", "ActionRanging"]


@dataclass(frozen=True)
class SignalPair:
    """The two reference signals of one ranging round (Step I output)."""

    auth: ReferenceSignal  # S_A — played by the authenticating device
    vouch: ReferenceSignal  # S_V — played by the vouching device


class ActionRanging:
    """Protocol-logic engine for one configuration."""

    def __init__(self, config: ProtocolConfig) -> None:
        self.config = config
        self.plan = build_frequency_plan(config)
        self.detector = FrequencyDetector(config, self.plan)

    # ------------------------------------------------------------------
    # Step I — construct the randomized reference signals
    # ------------------------------------------------------------------

    def construct_signals(self, rng: np.random.Generator) -> SignalPair:
        """Draw fresh randomized S_A and S_V (independent subsets)."""
        return SignalPair(
            auth=construct_reference_signal(self.config, rng),
            vouch=construct_reference_signal(self.config, rng),
        )

    # ------------------------------------------------------------------
    # Step IV — detect both signals in one device's recording
    # ------------------------------------------------------------------

    def observe(
        self,
        recording: np.ndarray,
        own: ReferenceSignal,
        remote: ReferenceSignal,
        sample_rate: float,
    ) -> DeviceObservation:
        """One device's detections: its own signal and the peer's.

        The own signal is located first (it is by far the loudest content
        in the buffer).  The remote scan then masks the own-signal
        neighbourhood: the playback schedule separates the two signals by
        several signal-lengths plus the worst-case propagation delay, so a
        remote signal can never legitimately sit there, while the loud own
        signal could otherwise capture the scan whenever the two random
        frequency subsets overlap heavily.

        Both scans share one coarse pass over the recording: the result
        equals two :meth:`~repro.core.detection.FrequencyDetector.detect`
        calls (own, then remote with the own zone masked), each of which
        would compute the very same coarse matrix.
        """
        detector = self.detector
        recording = np.asarray(recording, dtype=np.float64)
        own_hyp = SignalHypothesis.from_reference(own, self.plan, "own")
        remote_hyp = SignalHypothesis.from_reference(remote, self.plan, "remote")
        coarse_starts = detector.coarse_starts(recording.shape[0])
        if coarse_starts.size == 0:
            return DeviceObservation(
                own=detector.empty_result(own_hyp),
                remote=detector.empty_result(remote_hyp),
                sample_rate=sample_rate,
            )
        coarse_powers = detector.candidate_powers(recording, coarse_starts)
        own_result = detector.fine_scan(
            recording, coarse_starts, coarse_powers, own_hyp, []
        )
        remote_result = detector.fine_scan(
            recording,
            coarse_starts,
            coarse_powers,
            remote_hyp,
            self._own_exclusion_zones(own_result),
        )
        return DeviceObservation(
            own=own_result, remote=remote_result, sample_rate=sample_rate
        )

    def _own_exclusion_zones(
        self, own_result: DetectionResult
    ) -> list[tuple[int, int]]:
        """The own-signal neighbourhood masked from the remote scan."""
        if not own_result.present:
            return []
        assert own_result.location is not None
        guard = self.config.signal_length + 512
        return [(own_result.location - guard, own_result.location + guard)]

    # ------------------------------------------------------------------
    # Step VI — combine the two observations into a distance
    # ------------------------------------------------------------------

    def finalize(
        self,
        auth_observation: DeviceObservation,
        vouch_ok: bool,
        vouch_delta_seconds: float,
    ) -> RangingOutcome:
        """Equation 3 from the authenticating device's viewpoint.

        Parameters
        ----------
        auth_observation:
            The authenticating device's local detections.
        vouch_ok:
            Whether the vouching device found both signals (Step V reports
            failure otherwise, and PIANO denies).
        vouch_delta_seconds:
            The vouching device's reported ``t_VA − t_VV``.
        """
        if not vouch_ok or not auth_observation.complete:
            return RangingOutcome(
                status=RangingStatus.SIGNAL_NOT_PRESENT,
                auth_observation=auth_observation,
            )
        delta_auth = auth_observation.local_delta_seconds
        distance = (
            0.5 * self.config.speed_of_sound * (delta_auth + vouch_delta_seconds)
        )
        return RangingOutcome(
            status=RangingStatus.OK,
            distance_m=distance,
            auth_observation=auth_observation,
        )

    def finalize_with_observations(
        self,
        auth_observation: DeviceObservation,
        vouch_observation: DeviceObservation,
    ) -> RangingOutcome:
        """Convenience finalize when both observations are locally available.

        Tests and baselines use this; the real message flow goes through
        :meth:`finalize` with the vouching device's transmitted delta.
        """
        vouch_ok = vouch_observation.complete
        delta = vouch_observation.local_delta_seconds if vouch_ok else 0.0
        outcome = self.finalize(auth_observation, vouch_ok, delta)
        if outcome.status is RangingStatus.OK:
            return RangingOutcome(
                status=RangingStatus.OK,
                distance_m=outcome.distance_m,
                auth_observation=auth_observation,
                vouch_observation=vouch_observation,
            )
        return RangingOutcome(
            status=outcome.status,
            auth_observation=auth_observation,
            vouch_observation=vouch_observation,
        )
