"""Per-deployment threshold auto-calibration from served evidence.

Every completed ranging round the service executes is free calibration
data: on the simulated substrate the request carries the true distance,
so the round's signed ranging error (estimate − truth) is observable at
decision time.  :class:`CalibrationStore` keeps a bounded window of
recent errors per environment and turns them into the deployment's
σ_d estimate; :meth:`CalibrationStore.summary` then picks the tightest
threshold τ meeting a target FRR through the §VI-C Gaussian model
(:class:`repro.core.decisions.CalibrationContext` →
:meth:`repro.eval.frr_far.GaussianAuthModel.threshold_for_frr`).

This is the service half of the decide seam: evidence is recorded once
per served round decision (no extra renders, no RNG), and τ selection is
a pure fan-out over it — the wire ``calibrate`` message
(:class:`~repro.service.protocol.CalibrateRequest`) just reads the
current summary (:meth:`CalibrationStore.reply`).  Until an environment
has seen enough traffic (``min_samples``), the paper-implied σ priors
(:data:`repro.eval.frr_far.PAPER_SIGMAS_M`) answer instead, flagged
``source="prior"``; hardware deployments without ground truth would
feed the window from supervised enrollment rounds the same way.

A tier keeps one store: the single-process server records the decisions
it streams, and the sharded router records the decisions it forwards
(:mod:`repro.service.shard`), so ``calibrate`` does not depend on the
worker count.  A round is keyed by ``(session key, trial)``, and a key
already in the window is not counted again, so a retried round counts
once.  Recording and :func:`robust_sigma` are stdlib-only — the router
records without loading numpy or scipy; the τ model loads on the first
summary.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Hashable

from repro.service.protocol import CalibrateReply, CalibrateRequest, ErrorReply

__all__ = ["CalibrationStore", "CalibrationSummary", "robust_sigma"]


def robust_sigma(errors) -> float:
    """MAD-based σ estimate (×1.4826), robust to ⊥-adjacent outliers.

    The same estimator the evaluation stack pools per cell
    (``repro.eval.stats.ErrorStats.robust_std_cm``), in meters.

    The MAD of a sample whose *majority* is one repeated value is 0 —
    common in served windows, where quantized estimates at one distance
    repeat exactly — which would discard the spread the minority carries
    (e.g. ``[0.02]*4 + [0.05]``).  When that happens the sample standard
    deviation answers instead, so the estimate is 0 only for genuinely
    zero-spread windows (which :meth:`CalibrationStore.sigma` then
    routes to the paper prior — the Gaussian model needs σ > 0).
    """
    values = sorted(float(e) for e in errors)
    if not values:
        raise ValueError("need at least one error sample")
    median = _median(values)
    deviations = sorted(abs(v - median) for v in values)
    mad = _median(deviations)
    if mad > 0.0:
        return 1.4826 * mad
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(variance)


def _median(ordered: list[float]) -> float:
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass(frozen=True)
class CalibrationSummary:
    """One environment's calibration state at a point in time.

    ``source`` is ``"measured"`` when σ comes from the served-traffic
    error window, ``"prior"`` when it is the paper-implied σ (not enough
    samples yet).  ``threshold_m`` is the tightest τ whose modeled FRR
    meets ``target_frr`` under that σ (clamped to the acoustic range
    d_s when the target is unreachable).
    """

    environment: str
    threshold_m: float
    sigma_m: float
    samples: int
    target_frr: float
    source: str


class CalibrationStore:
    """Bounded per-environment windows of observed ranging errors.

    Parameters
    ----------
    window:
        Max errors retained per environment (oldest evicted first) —
        keeps the estimate tracking a drifting deployment instead of
        averaging over its whole history.
    min_samples:
        Below this many samples the paper prior answers instead of the
        (still noisy) measured σ.
    """

    def __init__(self, window: int = 1024, min_samples: int = 8) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        if min_samples < 2:
            raise ValueError(f"min_samples must be >= 2, got {min_samples!r}")
        self.window = window
        self.min_samples = min_samples
        #: Per environment: the windowed ``(key, error)`` pairs, oldest
        #: first, and the set of keys among them.
        self._errors: dict[str, deque[tuple[Hashable, float]]] = {}
        self._keys: dict[str, set[Hashable]] = {}
        self._recorded = 0

    @property
    def recorded(self) -> int:
        """Total errors ever recorded (evicted samples included)."""
        return self._recorded

    def record(
        self, environment: str, error_m: float, key: Hashable | None = None
    ) -> None:
        """Add one completed round's signed ranging error (meters).

        ``key`` names the round (the service passes ``(session key,
        trial)``); a key already in the window is dropped, so a retried
        round counts once.  ``None`` never deduplicates.
        """
        if not isinstance(environment, str) or not environment:
            raise ValueError("environment must be a non-empty string")
        error_m = float(error_m)
        if not math.isfinite(error_m):
            return  # defensive: never poison the window
        window = self._errors.get(environment)
        if window is None:
            window = self._errors[environment] = deque()
            self._keys[environment] = set()
        keys = self._keys[environment]
        if key is not None:
            if key in keys:
                return
            keys.add(key)
        if len(window) == self.window:
            keys.discard(window.popleft()[0])
        window.append((key, error_m))
        self._recorded += 1

    def samples(self, environment: str) -> int:
        """Errors currently windowed for ``environment``."""
        return len(self._errors.get(environment, ()))

    def sigma(self, environment: str) -> tuple[float, int, str]:
        """``(sigma_m, samples, source)`` for an environment.

        Measured (robust MAD σ over the window) once ``min_samples``
        errors are in; otherwise the paper-implied prior — ``office``'s
        for environments the paper did not profile.  A degenerate
        all-identical window (σ = 0) also falls back to the prior: the
        Gaussian model needs σ > 0.
        """
        from repro.eval.frr_far import PAPER_SIGMAS_M

        window = self._errors.get(environment, ())
        prior = PAPER_SIGMAS_M.get(environment, PAPER_SIGMAS_M["office"])
        if len(window) >= self.min_samples:
            measured = robust_sigma(error for _, error in window)
            if measured > 0:
                return measured, len(window), "measured"
        return prior, len(window), "prior"

    def summary(
        self, environment: str, target_frr: float = 0.05
    ) -> CalibrationSummary:
        """Current σ and the tightest τ meeting ``target_frr`` (fraction)."""
        from repro.core.decisions import CalibrationContext

        sigma_m, samples, source = self.sigma(environment)
        context = CalibrationContext(sigma_m=sigma_m, target_frr=target_frr)
        return CalibrationSummary(
            environment=environment,
            threshold_m=context.threshold_m(),
            sigma_m=sigma_m,
            samples=samples,
            target_frr=target_frr,
            source=source,
        )

    def reply(self, request: CalibrateRequest) -> CalibrateReply | ErrorReply:
        """The wire answer to ``request``: the calibrated τ, or why not.

        A tier answers once, as shard 0 of 1.  Unknown environments and
        targets outside (0, 100) % get a ``bad-request`` error.
        """
        from repro.acoustics.environment import get_environment

        if not 0 < request.target_frr_pct < 100:
            return ErrorReply(
                request_id=request.request_id,
                code="bad-request",
                message=(
                    "target_frr_pct must be in (0, 100), got "
                    f"{request.target_frr_pct!r}"
                ),
            )
        try:
            get_environment(request.environment)
        except KeyError:
            return ErrorReply(
                request_id=request.request_id,
                code="bad-request",
                message=f"unknown environment {request.environment!r}",
            )
        summary = self.summary(
            request.environment, target_frr=request.target_frr_pct / 100.0
        )
        return CalibrateReply(
            request_id=request.request_id,
            shard=0,
            shards=1,
            environment=summary.environment,
            threshold_m=summary.threshold_m,
            sigma_m=summary.sigma_m,
            samples=summary.samples,
            target_frr_pct=100.0 * summary.target_frr,
            source=summary.source,
        )
