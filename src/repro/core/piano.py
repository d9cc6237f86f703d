"""PIANO — the authentication layer over ACTION (§III, §IV).

The decision rule: a user touching the authenticating device is accepted iff

1. the vouching device is *registered* (one-time Bluetooth pairing),
2. the vouching device is *reachable* over Bluetooth (≈ 10 m gate), and
3. ACTION's distance estimate is no larger than the user-selected
   threshold τ.

A ⊥ from the detector (signal not present — far devices, walls, spoofing)
denies.  The authenticator checks conditions 1 and 2 itself, retries a ⊥
round up to ``AuthConfig.max_retries`` times, and decides the final round
with :class:`repro.core.decisions.ThresholdPolicy`: condition 3 and the
status → deny-reason map live in :mod:`repro.core.decisions` only.  It
is substrate-agnostic: it consumes a *pairing view* and a *ranging
runner*, which the simulated world provides (and real hardware could,
too).

This module also hosts the §VI-D latency optimization as an optional
extension: :class:`PreAuthenticator` watches an accelerometer trace and
starts authentication at the detected pickup, hiding ACTION's seconds-long
latency from the user.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Protocol

from repro.core.config import AuthConfig
from repro.core.decisions import (
    AuthDecision,
    AuthResult,
    DenyReason,
    ThresholdPolicy,
)
from repro.core.ranging import RangingOutcome, RangingStatus
from repro.devices.sensors import AccelerometerTrace, PickupDetector

__all__ = ["PairingView", "PianoAuthenticator", "PreAuthenticator"]


class PairingView(Protocol):
    """What the authenticator needs to know about the Bluetooth pairing."""

    def is_paired(self) -> bool:
        """Whether a registration (pairing) exists at all."""
        ...

    def in_range(self) -> bool:
        """Whether the paired vouching device is currently reachable."""
        ...


class PianoAuthenticator:
    """Makes grant/deny decisions per the PIANO rule."""

    def __init__(self, auth_config: AuthConfig | None = None) -> None:
        self.auth_config = auth_config or AuthConfig()

    # ------------------------------------------------------------------

    def authenticate(
        self,
        pairing: PairingView,
        ranger: Callable[[], RangingOutcome],
    ) -> AuthResult:
        """Run one authentication attempt.

        Parameters
        ----------
        pairing:
            The pairing/reachability view of the vouching device.
        ranger:
            Executes one ACTION round and returns its outcome.  Called once,
            plus up to ``auth_config.max_retries`` extra times when a round
            returns ⊥ (retries are an extension; the paper's prototype
            denies on the first ⊥).
        """
        config = self.auth_config
        if not pairing.is_paired():
            return AuthResult(
                decision=AuthDecision.DENY,
                reason=DenyReason.NOT_PAIRED,
                threshold_m=config.threshold_m,
            )
        if not pairing.in_range():
            return AuthResult(
                decision=AuthDecision.DENY,
                reason=DenyReason.OUT_OF_BLUETOOTH_RANGE,
                threshold_m=config.threshold_m,
            )

        outcome: RangingOutcome | None = None
        rounds = 0
        elapsed = 0.0
        energy = 0.0
        for _ in range(config.max_retries + 1):
            outcome = ranger()
            rounds += 1
            elapsed += outcome.elapsed_s
            energy += outcome.energy_j
            if outcome.status is not RangingStatus.SIGNAL_NOT_PRESENT:
                break
        assert outcome is not None
        # The decision is the final round's, under the one fixed-τ rule
        # of repro.core.decisions; the costs are every round's.
        result = ThresholdPolicy(config.threshold_m).decide(outcome)
        return replace(result, rounds=rounds, elapsed_s=elapsed, energy_j=energy)


@dataclass(frozen=True)
class PreAuthenticator:
    """§VI-D extension: authenticate at pickup, before the user asks.

    Wraps a pickup detector; :meth:`plan` turns an accelerometer trace into
    the moment authentication should start so that the result is ready by
    the time the user interacts (ACTION's latency is hidden).
    """

    detector: PickupDetector
    ranging_latency_s: float = 3.0

    def plan(self, trace: AccelerometerTrace) -> dict[str, float | None]:
        """Decide when to pre-authenticate for a given trace.

        Returns a dict with:

        * ``pickup_detected_s`` — detection time or ``None``;
        * ``auth_start_s`` — when ranging should start (same as detection);
        * ``ready_by_s`` — when the decision will be available;
        * ``latency_hidden_s`` — how much of the ranging latency is hidden,
          assuming the user's first interaction comes ~2 s after pickup.
        """
        detected = self.detector.detect(trace)
        if detected is None:
            return {
                "pickup_detected_s": None,
                "auth_start_s": None,
                "ready_by_s": None,
                "latency_hidden_s": 0.0,
            }
        first_use = detected + 2.0
        ready = detected + self.ranging_latency_s
        hidden = min(self.ranging_latency_s, max(0.0, first_use - detected))
        return {
            "pickup_detected_s": detected,
            "auth_start_s": detected,
            "ready_by_s": ready,
            "latency_hidden_s": hidden,
        }
