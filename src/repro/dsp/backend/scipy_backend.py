"""scipy.fft backend: pocketfft-C++ with ``workers=`` multithreading.

The FFT kernel dispatches to :func:`scipy.fft.rfft` with ``workers`` set
to the host's CPU count.  Rows of a window batch are independent, so
scipy's thread-level row split cannot change any output value relative to
a single-threaded scipy transform; whether scipy's transform is in turn
bit-identical to ``np.fft.rfft`` depends on the installed numpy/scipy
pair (both ship pocketfft; recent numpy ships the same C++ generation).
The backend is only ever installed by name (``--dsp-backend scipy``),
and then promises the documented ``1e-10`` relative tolerance.

The batched convolution kernel uses :func:`scipy.signal.oaconvolve`
(overlap-add, FFT-based): across a stack of equal-shape (waveform, taps)
pairs it evaluates all rows in one vectorized pass.  Overlap-add changes
the summation order versus direct convolution, so its outputs agree with
``np.convolve`` only to float tolerance — which is exactly why the
default backend keeps the direct per-row kernel.  The mixer convolves
one arrival at a time (``convolve``), which this backend leaves to
``np.convolve``.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.fft
from scipy import signal as sp_signal

from repro.dsp.backend.base import DSPBackend

__all__ = ["ScipyBackend"]


class ScipyBackend(DSPBackend):
    """``scipy.fft`` kernels with row-parallel worker threads."""

    name = "scipy"

    def __init__(
        self,
        fft_chunk_windows: int | None = None,
        workers: int | None = None,
    ) -> None:
        super().__init__(fft_chunk_windows)
        self.workers = workers if workers is not None else (os.cpu_count() or 1)

    def rfft(self, batch: np.ndarray, axis: int = -1) -> np.ndarray:
        return scipy.fft.rfft(batch, axis=axis, workers=self.workers)

    def convolve(self, signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
        return np.convolve(signal, taps)

    def convolve_batch(
        self, signals: np.ndarray, taps: np.ndarray
    ) -> np.ndarray:
        signals, taps = self._validate_convolve_batch(
            signals, taps, dtype=np.float64
        )
        return sp_signal.oaconvolve(signals, taps, mode="full", axes=-1)
