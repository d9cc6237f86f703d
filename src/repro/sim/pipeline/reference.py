"""The pre-refactor monolithic session loop, kept as executable spec.

This is the serial ``RangingSession.run()`` body exactly as it existed
before the staged pipeline existed — one long function that interleaves
signal construction, Bluetooth transfers, scheduling, rendering, and
detection.  It is **not** used by any production path; it exists so that

* the equivalence tests can assert the runner (at every batch size)
  produces bit-identical :class:`~repro.core.ranging.RangingOutcome`\\ s
  against the original *control flow* (orchestration, RNG draw order,
  mixer sequencing), and
* ``benchmarks/bench_pipeline.py`` can measure the runner against
  the true pre-refactor hot path by additionally swapping in
  :meth:`~repro.core.detection.FrequencyDetector.candidate_powers_reference`.

Scope note: this function calls ``ctx.action.observe`` like every other
path, so it shares the *current* detector arithmetic.  The refactor's one
numerical change — ``candidate_powers`` moving to rfft + aggregation-bin
gathering — sits below this seam and is preserved separately as
``candidate_powers_reference`` (values agree to ~1e-13 relative; the
``run-all --quick`` tables were verified byte-identical across the
switch, see ``docs/pipeline.md``).

Any behavioural change here would defeat its purpose; edit the stages in
:mod:`repro.sim.pipeline.stages` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acoustics.mixer import AcousticMixer, PlaybackEvent, RecordingRequest
from repro.comms.messages import RangingInit, VouchReport
from repro.core.action import SignalPair
from repro.core.exceptions import PairingError
from repro.core.ranging import RangingOutcome, RangingStatus
from repro.sim.events import EventScheduler
from repro.sim.pipeline.stages import (
    SessionContext,
    radiated_reference_waveform,
    session_cost,
)

__all__ = ["SessionArtifacts", "run_monolithic"]


@dataclass
class SessionArtifacts:
    """Everything the monolithic loop produced, for diagnostics.

    Only :func:`run_monolithic` writes one; the live pipeline carries its
    intermediate results in its stage dataclasses instead.
    """

    signals: SignalPair | None = None
    recording_auth: np.ndarray | None = None
    recording_vouch: np.ndarray | None = None
    playbacks: list[PlaybackEvent] = field(default_factory=list)
    auth_record_start_world: float = 0.0
    vouch_record_start_world: float = 0.0
    auth_play_world: float = 0.0
    vouch_play_world: float = 0.0
    report: VouchReport | None = None


def run_monolithic(
    ctx: SessionContext,
    rng: np.random.Generator,
    artifacts: SessionArtifacts | None = None,
) -> RangingOutcome:
    """Execute one full round through the pre-refactor serial flow."""
    timing = ctx.timing
    scheduler = EventScheduler()
    if artifacts is None:
        artifacts = SessionArtifacts()

    # Step I: the authenticating device constructs both signals.
    signals = ctx.action.construct_signals(rng)
    artifacts.signals = signals

    # Step II: ship the signal descriptions over Bluetooth.
    init = RangingInit(
        session_id=ctx.session_id,
        signal_auth_indices=tuple(int(i) for i in signals.auth.candidate_indices),
        signal_vouch_indices=tuple(int(i) for i in signals.vouch.candidate_indices),
        record_span_s=timing.record_span_s,
        vouch_play_offset_s=timing.vouch_play_offset_s,
    )
    try:
        _, init_latency = ctx.link.transfer(init, rng)
    except PairingError:
        return RangingOutcome(status=RangingStatus.BLUETOOTH_UNAVAILABLE)

    # Step III: recording and playback schedules.
    auth_rec_latency = ctx.auth_device.os_audio.draw_record_latency(rng)
    vouch_rec_latency = ctx.vouch_device.os_audio.draw_record_latency(rng)
    auth_rec_start = scheduler.now + auth_rec_latency
    vouch_rec_start = scheduler.now + init_latency + vouch_rec_latency

    auth_play_latency = ctx.auth_device.os_audio.draw_playback_latency(rng)
    vouch_play_latency = ctx.vouch_device.os_audio.draw_playback_latency(rng)
    auth_play_world = (
        auth_rec_start + timing.auth_play_offset_s + auth_play_latency
    )
    vouch_play_world = (
        vouch_rec_start + timing.vouch_play_offset_s + vouch_play_latency
    )

    playbacks: list[PlaybackEvent] = []

    def emit_auth() -> None:
        playbacks.append(
            PlaybackEvent(
                device=ctx.auth_device,
                waveform=radiated_reference_waveform(ctx.auth_device, signals.auth),
                world_start=auth_play_world,
                label="S_A",
            )
        )

    def emit_vouch() -> None:
        playbacks.append(
            PlaybackEvent(
                device=ctx.vouch_device,
                waveform=radiated_reference_waveform(
                    ctx.vouch_device, signals.vouch
                ),
                world_start=vouch_play_world,
                label="S_V",
            )
        )

    scheduler.schedule_at(auth_play_world, emit_auth, label="play S_A")
    scheduler.schedule_at(vouch_play_world, emit_vouch, label="play S_V")

    window_start = min(auth_rec_start, vouch_rec_start)
    window_end = max(auth_rec_start, vouch_rec_start) + timing.record_span_s
    for provider in ctx.interference:
        for event in provider(window_start, window_end, rng):
            scheduler.schedule_at(
                max(event.world_start, scheduler.now),
                lambda e=event: playbacks.append(e),
                label=f"interference {event.label}",
            )

    scheduler.run(until=window_end)

    artifacts.playbacks = playbacks
    artifacts.auth_record_start_world = auth_rec_start
    artifacts.vouch_record_start_world = vouch_rec_start
    artifacts.auth_play_world = auth_play_world
    artifacts.vouch_play_world = vouch_play_world

    # Render both microphones.
    mixer = AcousticMixer(
        environment=ctx.environment,
        room=ctx.room,
        propagation=ctx.propagation,
        rng=rng,
    )
    n_samples = int(round(timing.record_span_s * ctx.config.sample_rate))
    recording_auth = mixer.render(
        RecordingRequest(ctx.auth_device, auth_rec_start, n_samples), playbacks
    )
    recording_vouch = mixer.render(
        RecordingRequest(ctx.vouch_device, vouch_rec_start, n_samples), playbacks
    )
    artifacts.recording_auth = recording_auth
    artifacts.recording_vouch = recording_vouch

    # Step IV: both devices detect.
    auth_obs = ctx.action.observe(
        recording_auth,
        own=signals.auth,
        remote=signals.vouch,
        sample_rate=ctx.auth_device.sample_rate,
    )
    vouch_obs = ctx.action.observe(
        recording_vouch,
        own=signals.vouch,
        remote=signals.auth,
        sample_rate=ctx.vouch_device.sample_rate,
    )

    # Step V: the vouching device reports its local delta.
    report = VouchReport(
        session_id=ctx.session_id,
        ok=vouch_obs.complete,
        delta_seconds=(
            vouch_obs.local_delta_seconds if vouch_obs.complete else 0.0
        ),
    )
    try:
        delivered, report_latency = ctx.link.transfer(report, rng)
    except PairingError:
        return RangingOutcome(status=RangingStatus.BLUETOOTH_UNAVAILABLE)
    assert isinstance(delivered, VouchReport)
    artifacts.report = delivered

    # Step VI: Eq. 3 on the authenticating device.
    outcome = ctx.action.finalize(auth_obs, delivered.ok, delivered.delta_seconds)

    elapsed, energy = session_cost(ctx, auth_obs, init_latency + report_latency)
    ctx.auth_device.battery.drain(energy)
    return RangingOutcome(
        status=outcome.status,
        distance_m=outcome.distance_m,
        auth_observation=auth_obs,
        vouch_observation=vouch_obs,
        elapsed_s=elapsed,
        energy_j=energy,
    )
