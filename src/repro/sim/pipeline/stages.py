"""Typed, pure stages of one ACTION ranging round.

The six protocol steps of :mod:`repro.sim.session` decompose into
stages, each a module-level function consuming and producing frozen
dataclasses:

* :func:`negotiate` — Steps I–II: signal construction plus the Bluetooth
  init exchange;
* :func:`schedule` — Step III: OS audio-path latency draws and the
  event-scheduled playback sequence (including interference providers);
* :func:`render_noise` / :func:`render_arrivals` — the acoustic mixer
  produces both microphone captures: the RNG-bound noise beds and
  channel draws, then the deterministic DSP, one capture per DSP lane;
* :func:`detect` — Step IV: both devices run the detector;
* :func:`exchange` — Steps V–VI: the vouch report crosses the secure
  channel, Eq. 3 runs, and the cost model charges the battery, producing
  the round's :class:`~repro.core.ranging.RangingOutcome`.

:func:`prepare` is the round's RNG-bound prefix — ``negotiate`` →
``schedule`` → ``render_noise`` — and every round starts with it: a
:class:`PreparedRound` comes back, or the terminal outcome of a failed
Bluetooth negotiation.

No stage applies the authentication threshold τ: the decision is the
**decide seam** after :func:`exchange`, where
:mod:`repro.core.decisions` turns an outcome into grant or deny.  So one
round's outcome can be decided under arbitrarily many
:class:`repro.core.decisions.DecisionPolicy` instances (threshold grids,
calibration contexts) without re-rendering or re-detecting anything —
see ``docs/pipeline.md`` and :mod:`repro.eval.sweep`.

A stage's only side channels are the per-session RNG it consumes (in
exactly the order the pre-refactor monolith always drew — see
``docs/pipeline.md`` for the determinism argument) and, in the final
stage, the battery drain on the authenticating device.  Because the
boundaries between stages carry plain data, a runner can prepare B
independent rounds and then render and detect all 2·B captures on the
process's DSP lanes (:class:`repro.sim.pipeline.BatchedSessionRunner`,
:mod:`repro.dsp.lanes`), and the service can run the stages across its
event loop and DSP thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.acoustics.environment import Environment
from repro.acoustics.mixer import (
    AcousticMixer,
    CaptureJob,
    PlaybackEvent,
    RecordingRequest,
    render_capture,
)
from repro.acoustics.propagation import PropagationModel
from repro.comms.bluetooth import BluetoothLink
from repro.comms.messages import RangingInit, VouchReport
from repro.core.action import SignalPair
from repro.core.config import ProtocolConfig
from repro.core.exceptions import PairingError
from repro.core.ranging import (
    DeviceObservation,
    RangingEngine,
    RangingOutcome,
    RangingStatus,
)
from repro.core.signal_construction import ReferenceSignal
from repro.devices.battery import ComponentPower, PhaseDurations
from repro.devices.device import Device
from repro.dsp.lanes import map_lanes
from repro.dsp.quantize import quantize_pcm16
from repro.dsp.sine import synthesize_tone_sum
from repro.sim.events import EventScheduler
from repro.sim.geometry import Room

__all__ = [
    "SessionTiming",
    "InterferenceProvider",
    "SessionContext",
    "NegotiationResult",
    "SchedulePlan",
    "PlannedRender",
    "PreparedRound",
    "RenderedRecordings",
    "DetectionPair",
    "radiated_reference_waveform",
    "negotiate",
    "schedule",
    "render_noise",
    "prepare",
    "render_arrivals",
    "detect",
    "exchange",
    "session_cost",
    "render_call_counts",
    "reset_render_call_counts",
]

#: An interference provider receives the acoustic window of the session
#: (world start/end of the recordings) and an RNG, and returns extra
#: playbacks — concurrent PIANO users (Fig. 2a) or attackers (§V/§VI-E).
#: Providers are pure data against this window contract, which is what
#: lets the scenario compiler (``repro.scenarios``) lower declarative
#: attacker/fleet scripts into :class:`SessionContext` assemblies.
InterferenceProvider = Callable[
    [float, float, np.random.Generator], list[PlaybackEvent]
]


@dataclass(frozen=True)
class SessionTiming:
    """Timing constants of one ranging round.

    The defaults keep both reference signals well inside both recordings
    under worst-case audio-path latency, and separate the two playbacks by
    far more than a signal length so they cannot overlap (a window holding
    both signals would fail Algorithm 2's β check — §VI-B2 observes this
    with concurrent users).
    """

    record_span_s: float = 1.6
    auth_play_offset_s: float = 0.18
    vouch_play_offset_s: float = 0.65
    cpu_per_window_s: float = 0.9e-3
    cpu_fixed_s: float = 0.35
    bluetooth_active_s: float = 0.25

    def __post_init__(self) -> None:
        if self.record_span_s <= 0:
            raise ValueError("record_span_s must be positive")
        if not 0 <= self.auth_play_offset_s < self.record_span_s:
            raise ValueError("auth_play_offset_s outside the recording span")
        if not 0 <= self.vouch_play_offset_s < self.record_span_s:
            raise ValueError("vouch_play_offset_s outside the recording span")


@dataclass(frozen=True)
class SessionContext:
    """Immutable description of one session: who ranges where, with what.

    Everything a stage needs *except* the per-session RNG stream, which is
    threaded through the stage calls so its draw order is explicit.
    """

    action: RangingEngine
    link: BluetoothLink
    auth_device: Device
    vouch_device: Device
    environment: Environment
    room: Room
    propagation: PropagationModel
    timing: SessionTiming
    session_id: int = 0
    interference: tuple[InterferenceProvider, ...] = ()
    component_power: ComponentPower = field(default_factory=ComponentPower)

    @property
    def config(self) -> ProtocolConfig:
        return self.action.config

    @property
    def record_samples(self) -> int:
        """Samples per capture buffer at the nominal rate."""
        return int(round(self.timing.record_span_s * self.config.sample_rate))


@dataclass(frozen=True)
class NegotiationResult:
    """Output of Steps I–II.

    ``failure`` carries the terminal outcome when the Bluetooth transfer
    failed; the remaining stages are skipped in that case.
    """

    signals: SignalPair
    init_latency_s: float = 0.0
    failure: RangingOutcome | None = None


@dataclass(frozen=True)
class SchedulePlan:
    """Output of Step III: the fully sequenced acoustic scene."""

    playbacks: tuple[PlaybackEvent, ...]
    auth_record_start: float
    vouch_record_start: float
    auth_play_world: float
    vouch_play_world: float
    window_end: float
    n_samples: int


@dataclass(frozen=True)
class PlannedRender:
    """RNG-phase output of the split render stage: both capture jobs.

    Holds everything the deterministic arrival phase needs — the noise
    beds and the realized-channel arrival plans for the auth and vouch
    captures.  Producing this object consumes the session RNG exactly as
    :func:`~repro.sim.pipeline.reference.run_monolithic`'s render does;
    finalizing it consumes no RNG at all, which is what lets each capture
    render on its own DSP lane.
    """

    auth: CaptureJob
    vouch: CaptureJob


@dataclass(frozen=True)
class PreparedRound:
    """A round after :func:`prepare`: everything its DSP and decide need.

    ``planned`` pins the round's noise beds and arrival plans (several
    MB at the paper's sample rate); the runner drops it once the captures
    are rendered.  Detection and :func:`exchange` read only ``context``
    and ``negotiation``.
    """

    context: SessionContext
    negotiation: NegotiationResult
    planned: PlannedRender


@dataclass(frozen=True)
class RenderedRecordings:
    """Both capture buffers, in each device's own clock/sample grid."""

    auth: np.ndarray
    vouch: np.ndarray


@dataclass(frozen=True)
class DetectionPair:
    """Step IV output: each device's two detections."""

    auth: DeviceObservation
    vouch: DeviceObservation


# Module-wide render accounting: how many per-session RNG render plans
# were drawn and how many capture plans went through the deterministic
# arrival phase.  The counters exist so sweeps can *prove* their
# O(renders) claim — a 16-threshold ROC sweep must log exactly the same
# counts as a 1-threshold run (tests/test_sweep.py, tools/roc_smoke.py).
# Plain ints, no locking: each stage counts on its calling thread (never
# on a DSP lane), one key per stage, and the counters are diagnostics,
# never inputs to any computation.
_RENDER_CALLS = {"noise_plans": 0, "arrival_captures": 0}


def render_call_counts() -> dict[str, int]:
    """Snapshot of the process-wide render counters.

    ``noise_plans`` counts :func:`render_noise` calls (one per session);
    ``arrival_captures`` counts capture jobs finalized by
    :func:`render_arrivals` (two per session).
    """
    return dict(_RENDER_CALLS)


def reset_render_call_counts() -> None:
    """Zero the render counters (test/benchmark bookkeeping)."""
    for key in _RENDER_CALLS:
        _RENDER_CALLS[key] = 0


def radiated_reference_waveform(
    device: Device, reference: ReferenceSignal
) -> np.ndarray:
    """Synthesize the waveform ``device`` radiates for ``reference``.

    Applies the device's per-tone response ripple (if any), the speaker
    gain/clipping, and 16-bit quantization — i.e., the physical output of
    the playback API.
    """
    config = reference.config
    amplitudes = np.full(reference.n_tones, config.reference_peak / reference.n_tones)
    if device.ripple is not None:
        amplitudes = amplitudes * device.ripple.gains[reference.candidate_indices]
    waveform = synthesize_tone_sum(
        frequencies=reference.frequencies(),
        amplitudes=amplitudes,
        n_samples=config.signal_length,
        sample_rate=config.sample_rate,
    )
    return quantize_pcm16(device.speaker.radiate(waveform))


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------


def negotiate(
    ctx: SessionContext, rng: np.random.Generator
) -> NegotiationResult:
    """Steps I–II: construct S_A/S_V and ship them over Bluetooth."""
    signals = ctx.action.construct_signals(rng)
    timing = ctx.timing
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
        return NegotiationResult(
            signals=signals,
            failure=RangingOutcome(status=RangingStatus.BLUETOOTH_UNAVAILABLE),
        )
    return NegotiationResult(signals=signals, init_latency_s=init_latency)


def schedule(
    ctx: SessionContext,
    negotiation: NegotiationResult,
    rng: np.random.Generator,
) -> SchedulePlan:
    """Step III: draw audio-path latencies, sequence every playback.

    All acoustic events — the two reference playbacks and anything the
    interference providers contribute — run through the deterministic
    event scheduler, so the order of the returned ``playbacks`` tuple (and
    therefore the mixer's floating-point summation order) is a pure
    function of event times and insertion order.
    """
    timing = ctx.timing
    signals = negotiation.signals
    scheduler = EventScheduler()

    auth_rec_latency = ctx.auth_device.os_audio.draw_record_latency(rng)
    vouch_rec_latency = ctx.vouch_device.os_audio.draw_record_latency(rng)
    auth_rec_start = scheduler.now + auth_rec_latency
    vouch_rec_start = scheduler.now + negotiation.init_latency_s + vouch_rec_latency

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
                waveform=radiated_reference_waveform(
                    ctx.auth_device, signals.auth
                ),
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
    window_end = (
        max(auth_rec_start, vouch_rec_start) + timing.record_span_s
    )
    for provider in ctx.interference:
        for event in provider(window_start, window_end, rng):
            scheduler.schedule_at(
                max(event.world_start, scheduler.now),
                lambda e=event: playbacks.append(e),
                label=f"interference {event.label}",
            )

    scheduler.run(until=window_end)

    return SchedulePlan(
        playbacks=tuple(playbacks),
        auth_record_start=auth_rec_start,
        vouch_record_start=vouch_rec_start,
        auth_play_world=auth_play_world,
        vouch_play_world=vouch_play_world,
        window_end=window_end,
        n_samples=ctx.record_samples,
    )


def render_noise(
    ctx: SessionContext,
    plan: SchedulePlan,
    rng: np.random.Generator,
) -> PlannedRender:
    """The RNG-bound half of the render stage: noise beds + channel draws.

    One per-session mixer consumes the session RNG in the fixed historical
    order — auth capture first (noise, self-noise, channel draws in
    playback order), then vouch — so splitting the stage does not disturb
    any trial's stream.  The returned :class:`PlannedRender` is pure data;
    everything after it is deterministic.
    """
    _RENDER_CALLS["noise_plans"] += 1
    mixer = AcousticMixer(
        environment=ctx.environment,
        room=ctx.room,
        propagation=ctx.propagation,
        rng=rng,
    )
    playbacks = list(plan.playbacks)
    return PlannedRender(
        auth=mixer.plan_capture(
            RecordingRequest(
                ctx.auth_device, plan.auth_record_start, plan.n_samples
            ),
            playbacks,
        ),
        vouch=mixer.plan_capture(
            RecordingRequest(
                ctx.vouch_device, plan.vouch_record_start, plan.n_samples
            ),
            playbacks,
        ),
    )


def prepare(
    ctx: SessionContext, rng: np.random.Generator
) -> PreparedRound | RangingOutcome:
    """The round's RNG-bound prefix: ``negotiate`` → ``schedule`` →
    ``render_noise`` on the session stream.

    Returns the terminal outcome instead when the Bluetooth negotiation
    failed; nothing after it runs for that round.  The runner, the
    service and the corpus recorder all start a round here.
    """
    negotiation = negotiate(ctx, rng)
    if negotiation.failure is not None:
        return negotiation.failure
    plan = schedule(ctx, negotiation, rng)
    return PreparedRound(ctx, negotiation, render_noise(ctx, plan, rng))


def render_arrivals(planned: Sequence[PlannedRender]) -> list[RenderedRecordings]:
    """The deterministic half of the render stage, for 1..B sessions.

    Renders each of the 2·B capture jobs on its own DSP lane
    (:func:`repro.dsp.lanes.map_lanes` over
    :func:`repro.acoustics.mixer.render_capture`).  A capture reads only
    its own job, so the result is bit-identical to finalizing each
    session alone (a lone round is B = 1 — same kernels, same calls).
    """
    jobs = [job for item in planned for job in (item.auth, item.vouch)]
    _RENDER_CALLS["arrival_captures"] += len(jobs)
    recordings = map_lanes(render_capture, jobs)
    return [
        RenderedRecordings(auth=recordings[2 * i], vouch=recordings[2 * i + 1])
        for i in range(len(planned))
    ]


def detect(
    ctx: SessionContext,
    negotiation: NegotiationResult,
    recordings: RenderedRecordings,
) -> DetectionPair:
    """Step IV: both devices run the detector on their captures.

    RNG-free: detection is a pure function of the recordings.  The batch
    seam :func:`repro.sim.pipeline.detect_batch` makes the same two
    ``observe`` calls per session, each recording on its own DSP lane.
    """
    signals = negotiation.signals
    auth_obs = ctx.action.observe(
        recordings.auth,
        own=signals.auth,
        remote=signals.vouch,
        sample_rate=ctx.auth_device.sample_rate,
    )
    vouch_obs = ctx.action.observe(
        recordings.vouch,
        own=signals.vouch,
        remote=signals.auth,
        sample_rate=ctx.vouch_device.sample_rate,
    )
    return DetectionPair(auth=auth_obs, vouch=vouch_obs)


def exchange(
    ctx: SessionContext,
    negotiation: NegotiationResult,
    detections: DetectionPair,
    rng: np.random.Generator,
) -> RangingOutcome:
    """Steps V–VI: vouch report, Eq. 3, cost model, battery drain.

    The last RNG-consuming stage (one report-transfer draw, in the exact
    historical order) and the last stage with a side effect (the battery
    drain).  Its :class:`RangingOutcome` carries no threshold: the
    decision against any τ — or any
    :class:`repro.core.decisions.DecisionPolicy` — is a pure function of
    it, evaluated as many times as wanted at no ranging cost.
    """
    vouch_obs = detections.vouch
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

    outcome = ctx.action.finalize(
        detections.auth, delivered.ok, delivered.delta_seconds
    )
    elapsed, energy = session_cost(
        ctx, detections.auth, negotiation.init_latency_s + report_latency
    )
    ctx.auth_device.battery.drain(energy)
    return RangingOutcome(
        status=outcome.status,
        distance_m=outcome.distance_m,
        auth_observation=detections.auth,
        vouch_observation=vouch_obs,
        elapsed_s=elapsed,
        energy_j=energy,
    )


def session_cost(
    ctx: SessionContext,
    auth_obs: DeviceObservation,
    bluetooth_latency_s: float,
) -> tuple[float, float]:
    """Modeled wall-clock and energy cost of one round (§VI-D).

    CPU time scales with the number of windows the detector visited,
    at a phone-class per-window cost; the recording span dominates the
    latency, matching the prototype's ≈ 3 s.
    """
    timing = ctx.timing
    windows = auth_obs.own.windows_scanned + auth_obs.remote.windows_scanned
    cpu_s = timing.cpu_fixed_s + timing.cpu_per_window_s * windows
    elapsed = (
        bluetooth_latency_s
        + timing.vouch_play_offset_s
        + timing.record_span_s
        + cpu_s
    )
    phases = PhaseDurations(
        speaker_s=ctx.config.signal_duration,
        microphone_s=timing.record_span_s,
        cpu_s=cpu_s,
        bluetooth_s=timing.bluetooth_active_s,
        total_s=elapsed,
    )
    return elapsed, phases.energy_joules(ctx.component_power)
