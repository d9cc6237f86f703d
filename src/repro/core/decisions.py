"""Authentication decisions, their reasons, and decision policies.

PIANO's decision rule (§III, §IV): grant access iff the vouching device is
paired, reachable over Bluetooth, and the ACTION distance estimate is no
larger than the user-selected threshold τ; a ⊥ (signal not present)
denies.  Every deny carries a machine-readable reason so applications
(and our experiments) can distinguish "user too far" from "signal not
present" from "no pairing".

This module is the only code that turns a round's result into grant or
deny.  Two pieces state the rule: :func:`within_threshold`, the one
comparison of an estimated distance with τ, and :data:`DENY_REASONS`,
the one map from a non-``OK`` :class:`~repro.core.ranging.RangingStatus`
to its :class:`DenyReason` (:func:`round_reason` combines them).
:class:`repro.core.piano.PianoAuthenticator` and the service's wire
decisions (``repro.service.server.round_decision`` and
``aggregate_decision``) call them; so do the policies below.

A :class:`DecisionPolicy` is a pure function of one round's
:class:`~repro.core.ranging.RangingOutcome`, which carries no threshold,
so one rendered round can be decided under arbitrarily many policies at
no ranging cost.  Three policies ship:

* :class:`ThresholdPolicy` — the paper's fixed-τ rule, the single-round
  decision of :class:`repro.core.piano.PianoAuthenticator`;
* :class:`ThresholdGridPolicy` — one round in, one decision per τ of a
  grid out (the ROC-sweep workhorse, :mod:`repro.eval.sweep`);
* :class:`CalibratedPolicy` — picks τ from a target FRR through the
  §VI-C Gaussian model (:mod:`repro.eval.frr_far`) given a
  :class:`CalibrationContext` (per-deployment σ_d), then applies the
  fixed-τ rule.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache

from repro.core.ranging import RangingOutcome, RangingStatus

__all__ = [
    "AuthDecision",
    "DenyReason",
    "AuthResult",
    "DENY_REASONS",
    "within_threshold",
    "round_reason",
    "DecisionPolicy",
    "ThresholdPolicy",
    "ThresholdGridPolicy",
    "CalibrationContext",
    "CalibratedPolicy",
]


class AuthDecision(enum.Enum):
    """The binary outcome of a PIANO authentication."""

    GRANT = "grant"
    DENY = "deny"


class DenyReason(enum.Enum):
    """Why an authentication was denied (NONE for grants)."""

    NONE = "none"
    #: No registration: the devices were never paired (§IV, registration).
    NOT_PAIRED = "not_paired"
    #: Pairing exists but the vouching device is beyond Bluetooth range —
    #: the gate that makes FAR ≡ 0 past ~10 m (§VI-C).
    OUT_OF_BLUETOOTH_RANGE = "out_of_bluetooth_range"
    #: A reference signal was declared not present (⊥) — far devices,
    #: walls, heavy interference, or spoofing attempts (§IV-C, §VI-E).
    SIGNAL_NOT_PRESENT = "signal_not_present"
    #: Ranging succeeded but the distance exceeds the threshold τ.
    DISTANCE_EXCEEDS_THRESHOLD = "distance_exceeds_threshold"
    #: A secure-channel message failed authentication.
    CHANNEL_TAMPERED = "channel_tampered"


@dataclass(frozen=True)
class AuthResult:
    """Full record of one PIANO authentication attempt.

    Attributes
    ----------
    decision:
        Grant or deny.
    reason:
        Deny reason (``DenyReason.NONE`` for grants).
    threshold_m:
        The τ in force for this attempt.
    distance_m:
        The ACTION estimate, when ranging completed.
    rounds:
        Number of ranging rounds executed (> 1 only with the retry
        extension enabled).
    ranging:
        Diagnostics of the final ranging round, if any was executed.
    elapsed_s:
        Modeled end-to-end latency (§VI-D: ≈ 3 s on the prototype).
    energy_j:
        Modeled energy consumed on the authenticating device (§VI-D:
        100 authentications ≈ 0.6 % of an S4 battery).
    """

    decision: AuthDecision
    reason: DenyReason
    threshold_m: float
    distance_m: float | None = None
    rounds: int = 0
    ranging: RangingOutcome | None = None
    elapsed_s: float = 0.0
    energy_j: float = 0.0

    @property
    def granted(self) -> bool:
        return self.decision is AuthDecision.GRANT

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.granted:
            return (
                f"GRANT (distance {self.distance_m:.3f} m <= "
                f"threshold {self.threshold_m:.2f} m)"
            )
        detail = (
            f"{self.distance_m:.3f} m" if self.distance_m is not None else "n/a"
        )
        return (
            f"DENY [{self.reason.value}] (distance {detail}, "
            f"threshold {self.threshold_m:.2f} m)"
        )


#: The deny reason of every round status other than ``OK``.  PIANO
#: denies each of them outright; a ⊥ (``SIGNAL_NOT_PRESENT``) may first
#: be retried (``AuthConfig.max_retries``, the service's extra rounds).
DENY_REASONS: dict[RangingStatus, DenyReason] = {
    RangingStatus.SIGNAL_NOT_PRESENT: DenyReason.SIGNAL_NOT_PRESENT,
    RangingStatus.BLUETOOTH_UNAVAILABLE: DenyReason.OUT_OF_BLUETOOTH_RANGE,
    RangingStatus.CHANNEL_TAMPERED: DenyReason.CHANNEL_TAMPERED,
}


def within_threshold(outcome: RangingOutcome, threshold_m: float) -> bool:
    """PIANO's distance test: the round completed and its estimate is ≤ τ.

    The one place an estimated distance meets τ; every consumer of the
    rule (the policies, the authenticator, the service's wire decisions)
    asks here.
    """
    return bool(outcome.ok and outcome.require_distance() <= threshold_m)


def round_reason(status: RangingStatus, within: bool) -> DenyReason:
    """Why a round with ``status`` is denied (``NONE`` when it grants).

    ``within`` is the round's :func:`within_threshold` verdict; it
    decides only rounds that completed.
    """
    if status is not RangingStatus.OK:
        return DENY_REASONS[status]
    return DenyReason.NONE if within else DenyReason.DISTANCE_EXCEEDS_THRESHOLD


class DecisionPolicy(ABC):
    """A pure decision rule over one round's :class:`RangingOutcome`.

    ``decide`` must not consume RNG, mutate the outcome, or touch the
    ranging pipeline: this is what makes fanning one rendered round out
    across many policies free (O(renders) ROC sweeps over cached cells).
    """

    @abstractmethod
    def decide(
        self, outcome: RangingOutcome
    ) -> AuthResult | tuple[AuthResult, ...]:
        """Map one round to one result (or one per grid point)."""


@dataclass(frozen=True)
class ThresholdPolicy(DecisionPolicy):
    """The paper's fixed-τ rule (§III): grant iff distance ≤ ``threshold_m``.

    The single-round decision of ``repro.core.piano.PianoAuthenticator``.
    """

    threshold_m: float

    def decide(self, outcome: RangingOutcome) -> AuthResult:
        within = within_threshold(outcome, self.threshold_m)
        reason = round_reason(outcome.status, within)
        return AuthResult(
            decision=(
                AuthDecision.GRANT if reason is DenyReason.NONE else AuthDecision.DENY
            ),
            reason=reason,
            threshold_m=self.threshold_m,
            distance_m=outcome.distance_m,
            rounds=1,
            ranging=outcome,
            elapsed_s=outcome.elapsed_s,
            energy_j=outcome.energy_j,
        )


@dataclass(frozen=True)
class ThresholdGridPolicy(DecisionPolicy):
    """Decide one round under every τ of a grid in a single pass.

    Equivalent by construction to a tuple of :class:`ThresholdPolicy`
    decisions, amortizing one round across the whole grid — the
    workhorse of :mod:`repro.eval.sweep`.
    """

    thresholds_m: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds_m", tuple(self.thresholds_m))

    def decide(self, outcome: RangingOutcome) -> tuple[AuthResult, ...]:
        return tuple(
            ThresholdPolicy(threshold).decide(outcome)
            for threshold in self.thresholds_m
        )


@lru_cache(maxsize=256)
def _calibrated_threshold(
    sigma_m: float,
    target_frr: float,
    max_range_m: float,
    bluetooth_range_m: float,
    grid_step_m: float,
) -> float:
    from repro.eval.frr_far import GaussianAuthModel

    model = GaussianAuthModel(
        sigma_m=sigma_m,
        max_range_m=max_range_m,
        bluetooth_range_m=bluetooth_range_m,
        grid_step_m=grid_step_m,
    )
    return model.threshold_for_frr(target_frr)


@dataclass(frozen=True)
class CalibrationContext:
    """Per-deployment inputs for picking τ from a target FRR (§VI-C).

    ``sigma_m`` is the deployment's ranging-error spread (measured online
    by the service's calibration store, or a paper prior);
    ``target_frr`` is the acceptable false-rejection fraction (not
    percent).  The τ resolution runs through the §VI-C Gaussian model in
    :mod:`repro.eval.frr_far` and is cached per context.
    """

    sigma_m: float
    target_frr: float = 0.05
    max_range_m: float = 2.5
    bluetooth_range_m: float = 10.0
    grid_step_m: float = 0.005

    def threshold_m(self) -> float:
        """Smallest grid τ whose modeled FRR is ≤ ``target_frr``."""
        return _calibrated_threshold(
            self.sigma_m,
            self.target_frr,
            self.max_range_m,
            self.bluetooth_range_m,
            self.grid_step_m,
        )


@dataclass(frozen=True)
class CalibratedPolicy(DecisionPolicy):
    """Fixed-τ rule with τ derived from a :class:`CalibrationContext`."""

    context: CalibrationContext

    def resolve(self) -> ThresholdPolicy:
        """The concrete fixed-τ policy this context resolves to."""
        return ThresholdPolicy(self.context.threshold_m())

    def decide(self, outcome: RangingOutcome) -> AuthResult:
        return self.resolve().decide(outcome)
