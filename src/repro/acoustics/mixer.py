"""The arrival mixer: renders what each microphone records.

Given a set of playback events (who radiated which waveform, starting at
which world time) and a recording request (which device listens, from when,
for how many samples), the mixer assembles the device's capture buffer:

1. background environment noise plus microphone self-noise,
2. every playback's arrival — delayed by propagation, scaled by spreading ×
   wall loss × transducer gains, convolved with the random per-pair channel
   filter (frequency smoothing), warped by the relative clock skew of the
   source/sink pair, and placed at the sample index the sink's own clock
   assigns to the arrival time,
3. 16-bit quantization, exactly like an Android capture buffer.

Sample placement is rounded to the sink's sample grid; one sample at
44.1 kHz is 7.8 mm of acoustic travel, an order of magnitude below the
paper's reported errors (DESIGN.md §3).

Two-phase rendering
-------------------
A capture renders in two phases with a data boundary between them:

* :meth:`AcousticMixer.plan_capture` — the **RNG phase**: noise synthesis,
  microphone self-noise, and lazy channel-filter draws, consuming the
  session RNG in exactly the order the one-shot ``render`` loop always
  drew (noise → self-noise → per-playback channel draws, skipping pairs
  whose end-to-end amplitude is negligible);
* :func:`render_capture` — the **arrival phase**: pure deterministic
  math (noise shaping, then convolve × amplitude → clock-skew warp →
  placement → quantize per arrival) over one planned capture, routed
  through the active :mod:`repro.dsp.backend` kernels.

Because the arrival phase is RNG-free and reads nothing outside its own
job, the pipeline renders the captures of a batch independently, on the
process's DSP lanes (:func:`repro.sim.pipeline.render_arrivals`).
``render`` itself is the two phases composed for a single capture — so
the serial, staged, and batched paths run the very same kernel calls
per capture and produce bit-identical buffers by construction
(accumulation into the capture buffer always happens in playback order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acoustics.environment import Environment
from repro.acoustics.noise import NoiseDraw
from repro.acoustics.propagation import PropagationModel
from repro.devices.device import Device
from repro.dsp.backend import get_backend
from repro.dsp.quantize import quantize_pcm16
from repro.dsp.resample import apply_clock_skew
from repro.sim.geometry import Room

__all__ = [
    "PlaybackEvent",
    "RecordingRequest",
    "PlannedArrival",
    "CaptureJob",
    "AcousticMixer",
    "render_capture",
]


@dataclass(frozen=True)
class PlaybackEvent:
    """One radiated waveform.

    Attributes
    ----------
    device:
        The radiating device (position and hardware are read from it).
    waveform:
        The radiated waveform — *after* the speaker model
        (:meth:`repro.devices.audio.SpeakerSpec.radiate`) — at the source's
        nominal sample rate.
    world_start:
        World time at which the first sample leaves the speaker.
    label:
        Diagnostic tag ("S_A", "S_V", "interferer-1", "spoof", …).
    """

    device: Device
    waveform: np.ndarray
    world_start: float
    label: str = ""

    def __post_init__(self) -> None:
        waveform = np.asarray(self.waveform, dtype=np.float64)
        if waveform.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {waveform.shape}")
        waveform.setflags(write=False)
        object.__setattr__(self, "waveform", waveform)


@dataclass(frozen=True)
class RecordingRequest:
    """One device's capture: ``n_samples`` starting at ``world_start``."""

    device: Device
    world_start: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")


@dataclass(frozen=True)
class PlannedArrival:
    """One playback's contribution to one capture, ready for DSP.

    Everything random (the channel taps) is already realized; turning a
    planned arrival into samples is pure arithmetic.
    """

    waveform: np.ndarray
    taps: np.ndarray
    amplitude: float
    start_index: int
    relative_ppm: float


@dataclass
class CaptureJob:
    """RNG-phase output for one capture: raw noise draws + planned arrivals.

    Everything random is already drawn (environment-noise buffers,
    microphone self-noise, channel taps inside the arrivals); the noise
    *shaping* — the Butterworth coloring of the white draw — is deferred
    to the arrival phase, which is deterministic and runs on a DSP lane.
    """

    n_samples: int
    noise: NoiseDraw
    self_noise: np.ndarray
    arrivals: list[PlannedArrival] = field(default_factory=list)


@dataclass
class AcousticMixer:
    """Renders microphone captures for one session.

    Channel filters are realized lazily per (source, sink) device pair and
    cached for the lifetime of the mixer, so the two directions of one
    ranging session each see a single consistent channel — but a new mixer
    (new session) draws fresh channels, reproducing the per-session
    variability of real hardware and air.
    """

    environment: Environment
    room: Room = field(default_factory=Room.open_space)
    propagation: PropagationModel = field(default_factory=PropagationModel)
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )
    _channels: dict[tuple[str, str], np.ndarray] = field(
        default_factory=dict, repr=False
    )

    def _channel_taps(self, source: Device, sink: Device) -> np.ndarray:
        key = (source.name, sink.name)
        taps = self._channels.get(key)
        if taps is None:
            if source.name == sink.name:
                profile = self.environment.reverb.self_path()
            else:
                profile = self.environment.reverb
            taps = profile.draw_channel(self.rng).taps
            self._channels[key] = taps
        return taps

    def _pair_amplitude(self, source: Device, sink: Device) -> float:
        """End-to-end amplitude factor excluding the speaker gain.

        The speaker gain is already baked into the radiated waveform; this
        factor covers spreading, walls, and the microphone gain.
        """
        if source.name == sink.name:
            spreading = self.propagation.spreading_factor(source.speaker.self_gap_m)
            wall_factor = 1.0
        else:
            spreading = self.propagation.spreading_factor(source.distance_to(sink))
            wall_factor = self.room.path_amplitude_factor(
                source.position, sink.position
            )
        return spreading * wall_factor * sink.microphone.gain

    def _arrival_distance(self, source: Device, sink: Device) -> float:
        if source.name == sink.name:
            return source.speaker.self_gap_m
        return source.distance_to(sink)

    def plan_capture(
        self, request: RecordingRequest, playbacks: list[PlaybackEvent]
    ) -> CaptureJob:
        """The RNG phase: draw the noise bed and realize every channel.

        Consumes the mixer RNG in exactly the order the one-shot render
        loop always drew: environment noise, microphone self-noise, then
        one channel draw per *new* audible (source, sink) pair in playback
        order — pairs whose end-to-end amplitude is negligible are skipped
        before any draw, matching the historical control flow.
        """
        sink = request.device
        noise = self.environment.noise.draw(
            request.n_samples, sink.sample_rate, self.rng
        )
        self_noise = sink.microphone.self_noise(request.n_samples, self.rng)

        arrivals: list[PlannedArrival] = []
        for playback in playbacks:
            source = playback.device
            amplitude = self._pair_amplitude(source, sink)
            if amplitude <= 1e-9:
                continue
            distance = self._arrival_distance(source, sink)
            arrival_world = playback.world_start + self.propagation.delay_s(distance)
            start_index = int(
                round(sink.clock.sample_index(arrival_world, request.world_start))
            )
            arrivals.append(
                PlannedArrival(
                    waveform=playback.waveform,
                    taps=self._channel_taps(source, sink),
                    amplitude=amplitude,
                    start_index=start_index,
                    relative_ppm=sink.clock.skew_ppm - source.clock.skew_ppm,
                )
            )
        return CaptureJob(
            n_samples=request.n_samples,
            noise=noise,
            self_noise=self_noise,
            arrivals=arrivals,
        )

    def render(self, request: RecordingRequest, playbacks: list[PlaybackEvent]) -> np.ndarray:
        """Render the capture buffer for ``request``.

        Returns ``n_samples`` of quantized 16-bit-valued float samples in
        the sink device's own clock/sample grid.  Equivalent to the RNG
        phase plus the arrival phase — the same kernels the batched
        pipeline runs per capture.
        """
        return render_capture(self.plan_capture(request, playbacks))

    @staticmethod
    def _add_at(buffer: np.ndarray, signal: np.ndarray, start: int) -> None:
        """Add ``signal`` into ``buffer`` at ``start``, clipping the overlap."""
        n = buffer.shape[0]
        lo = max(start, 0)
        hi = min(start + signal.shape[0], n)
        if hi <= lo:
            return
        buffer[lo:hi] += signal[lo - start : hi - start]


def render_capture(job: CaptureJob) -> np.ndarray:
    """The arrival phase: finalize one planned capture into samples.

    Deterministic given the job (no RNG): noise shaping, then per
    arrival convolution, amplitude scaling, clock-skew warping, and
    placement — strictly in the job's arrival (= playback) order, so the
    floating-point accumulation into the capture buffer matches the
    serial loop bit for bit.  Noise beds mix in the historical order
    (colored → broadband → self-noise).
    """
    backend = get_backend()
    buffer = job.noise.model.shape(job.noise)
    buffer += job.self_noise
    for arrival in job.arrivals:
        received = backend.convolve(arrival.waveform, arrival.taps) * arrival.amplitude
        if arrival.relative_ppm:
            received = apply_clock_skew(received, arrival.relative_ppm)
        AcousticMixer._add_at(buffer, received, arrival.start_index)
    return quantize_pcm16(buffer)
