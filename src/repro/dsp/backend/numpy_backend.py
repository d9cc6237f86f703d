"""The numpy kernels: the one backend every run uses.

Every kernel performs exactly the arithmetic the pre-backend hot paths
performed, so routing through this backend is byte-identical to the code
it replaced on every host — the anchor for the pipeline's determinism
guarantees (serial == staged == batched, and experiment tables invariant
under ``--jobs``).
"""

from __future__ import annotations

import numpy as np

from repro.dsp.backend.base import DSPBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(DSPBackend):
    """Reference kernels: ``np.fft.rfft``, ``np.convolve``, and scipy's
    compiled ``sosfilt`` loop (inherited from :class:`DSPBackend`)."""

    name = "numpy"
    bit_compatible = True

    def rfft(self, batch: np.ndarray, axis: int = -1) -> np.ndarray:
        return np.fft.rfft(batch, axis=axis)

    def convolve(self, signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
        return np.convolve(signal, taps)
