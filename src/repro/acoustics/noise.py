"""Background-noise synthesis for the evaluation environments.

§VI-A reports that real-world background noise (office, home, street, …)
concentrates below ≈ 6 kHz — the observation that motivates the 25–35 kHz
candidate band.  Our model therefore has two parts:

* a **low-frequency colored component** — white noise shaped by a low-pass
  filter, carrying almost all the power (speech, traffic, HVAC);
* a **broadband floor** — a small white component (electronics, turbulence)
  that is the only part reaching the candidate bins, and therefore the only
  part that perturbs detection accuracy.

The shaping filter is a digital Butterworth low-pass in second-order
sections, designed and run by :mod:`repro.dsp.iir` (a numpy port of
scipy's design and scipy's compiled filter loop, byte for byte the
``scipy.signal`` results) without importing ``scipy.signal``.

Per-environment parameter presets live in
:mod:`repro.acoustics.environment`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.dsp.backend import get_backend
from repro.dsp.iir import butter_lowpass_sos

__all__ = ["NoiseModel", "NoiseDraw", "low_frequency_power_fraction"]


@lru_cache(maxsize=64)
def _lowpass_sos(order: int, cutoff_hz: float, sample_rate: float) -> np.ndarray:
    """Butterworth low-pass design, cached per (order, cutoff, fs).

    The design is a pure function of its parameters, and a 64-trial plan
    used to re-run it for every one of its 128 noise buffers (~3 % of
    runtime); the evaluation sweeps only ever touch a handful of distinct
    parameter triples.  The cached array is frozen so no caller can
    corrupt a shared design.
    """
    sos = butter_lowpass_sos(order, cutoff_hz, sample_rate)
    sos.setflags(write=False)
    return sos


@dataclass(frozen=True)
class NoiseModel:
    """A two-component stationary background-noise generator.

    Attributes
    ----------
    low_freq_std:
        Standard deviation (sample units) of the low-frequency component.
    low_freq_cutoff_hz:
        Low-pass cutoff of the colored component (paper: noise power sits
        below ≈ 6 kHz; presets use 3–5 kHz).
    broadband_std:
        Standard deviation of the white broadband floor.
    filter_order:
        Butterworth order of the shaping filter: an integer of at least 1
        (a ``bool`` or a float such as 4.5 is rejected here, not at the
        first render).
    """

    low_freq_std: float = 1000.0
    low_freq_cutoff_hz: float = 4000.0
    broadband_std: float = 50.0
    filter_order: int = 4

    def __post_init__(self) -> None:
        if self.low_freq_std < 0 or self.broadband_std < 0:
            raise ValueError("noise standard deviations must be non-negative")
        if self.low_freq_cutoff_hz <= 0:
            raise ValueError("low_freq_cutoff_hz must be positive")
        order = self.filter_order
        if isinstance(order, bool) or not isinstance(order, numbers.Integral):
            raise ValueError(f"filter_order must be an integer, got {order!r}")
        if order < 1:
            raise ValueError("filter_order must be at least 1")

    def draw(
        self, n_samples: int, sample_rate: float, rng: np.random.Generator
    ) -> "NoiseDraw":
        """The RNG-bound half of noise synthesis: the raw normal draws.

        Consumes ``rng`` exactly as :meth:`sample` always did (the white
        low-frequency buffer first, then the broadband floor, each drawn
        only when its std is positive), but defers the deterministic
        shaping — the Butterworth coloring and scaling — to
        :meth:`shape`.  The split lets a batch renderer run every
        capture's RNG draws in per-trial stream order and then shape
        each capture's buffers on a DSP lane.
        """
        if n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        if n_samples and self.low_freq_cutoff_hz >= sample_rate / 2:
            raise ValueError(
                f"cutoff {self.low_freq_cutoff_hz} Hz must stay below the "
                f"Nyquist frequency {sample_rate / 2} Hz"
            )
        white = broadband = None
        if n_samples:
            if self.low_freq_std > 0:
                white = rng.normal(0.0, 1.0, size=n_samples)
            if self.broadband_std > 0:
                broadband = rng.normal(0.0, self.broadband_std, size=n_samples)
        return NoiseDraw(
            model=self,
            n_samples=n_samples,
            sample_rate=float(sample_rate),
            white=white,
            broadband=broadband,
        )

    def shape(self, draw: "NoiseDraw") -> np.ndarray:
        """The deterministic half: color, scale, and mix one draw.

        The arithmetic and accumulation order match the historical
        one-shot ``sample`` exactly.
        """
        if draw.n_samples == 0:
            return np.zeros(0)
        buffer = np.zeros(draw.n_samples, dtype=np.float64)
        if draw.white is not None:
            colored = get_backend().sosfilt(self.sos(draw.sample_rate), draw.white)
            scale = float(np.std(colored))
            if scale > 0:
                buffer += colored * (self.low_freq_std / scale)
        if draw.broadband is not None:
            buffer += draw.broadband
        return buffer

    def sos(self, sample_rate: float) -> np.ndarray:
        """The (cached) low-pass design shaping this model's colored part."""
        return _lowpass_sos(self.filter_order, self.low_freq_cutoff_hz, sample_rate)

    def sample(
        self, n_samples: int, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Generate ``n_samples`` of background noise at ``sample_rate``.

        Composition of :meth:`draw` and :meth:`shape` — the same RNG
        consumption and arithmetic the pre-split implementation had.
        """
        draw = self.draw(n_samples, sample_rate, rng)
        return self.shape(draw)

    @property
    def total_power(self) -> float:
        """Mean noise power (the two components are independent)."""
        return self.low_freq_std**2 + self.broadband_std**2

    def scaled(self, factor: float) -> "NoiseModel":
        """A copy with both components scaled by ``factor`` (ablations)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return NoiseModel(
            low_freq_std=self.low_freq_std * factor,
            low_freq_cutoff_hz=self.low_freq_cutoff_hz,
            broadband_std=self.broadband_std * factor,
            filter_order=self.filter_order,
        )


@dataclass(frozen=True)
class NoiseDraw:
    """RNG-phase output of :meth:`NoiseModel.draw` — raw normal buffers.

    ``white`` is the unit-variance buffer awaiting the low-pass coloring
    (None when the model has no low-frequency component or the draw is
    empty); ``broadband`` is the already-scaled white floor (None
    likewise).  Shaping a draw is deterministic, so draws can cross a
    stage boundary and be filtered off the RNG path.
    """

    model: NoiseModel
    n_samples: int
    sample_rate: float
    white: np.ndarray | None
    broadband: np.ndarray | None


def low_frequency_power_fraction(
    noise: np.ndarray, sample_rate: float, cutoff_hz: float = 6000.0
) -> float:
    """Fraction of a noise recording's power below ``cutoff_hz``.

    Used by tests to verify the §VI-A premise: for every environment preset
    the overwhelming majority of the noise power must sit below 6 kHz.
    """
    noise = np.asarray(noise, dtype=np.float64)
    if noise.size == 0:
        raise ValueError("noise recording is empty")
    spectrum = np.abs(np.fft.rfft(noise)) ** 2
    freqs = np.fft.rfftfreq(noise.size, d=1.0 / sample_rate)
    total = float(spectrum.sum())
    if total == 0:
        return 1.0
    return float(spectrum[freqs <= cutoff_hz].sum() / total)
