"""Kernel contract of the DSP backend layer.

Every spectral hot path of the reproduction — the detector's window-batch
power evaluation (:meth:`repro.core.detection.FrequencyDetector
.candidate_powers`), the acoustic mixer's channel convolutions, and the
background-noise shaping filter — routes through one of the kernels
below instead of calling numpy or :mod:`repro.dsp.iir` directly.

The contract that keeps the pipeline's determinism guarantees intact:

* :class:`~repro.dsp.backend.numpy_backend.NumpyBackend` is the one set
  of kernels: they perform exactly the arithmetic the pre-backend code
  performed (``np.fft.rfft``, the ``(2·|X|/N)²``-and-sum power formula,
  per-row ``np.convolve``, and scipy's compiled ``sosfilt`` loop, run
  by :func:`repro.dsp.iir.sosfilt` without importing ``scipy.signal``),
  so results are byte-identical to the pre-backend implementation on
  every host.
* Kernel results are row-wise independent, so chunking
  (``fft_chunk_windows``: :data:`DEFAULT_FFT_CHUNK_WINDOWS` unless the
  constructor sets it) never changes an output bit — provided no chunk
  holds a lone window of a longer run: ``window_powers`` sums a
  one-window batch's aggregation bins in a different order, so the
  detector folds a one-window remainder into the chunk before it, and
  the ceiling must be at least 2.
* Instances are shared by the DSP lanes (:mod:`repro.dsp.lanes`): a
  kernel may run on several threads at once.

``window_powers`` and ``convolve_batch`` are defined on the base class
in terms of ``self.rfft`` / ``self.convolve`` plus the exact reference
arithmetic, so a wrapper that only intercepts the primitive kernels
still computes the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.dsp import iir

__all__ = ["DSPBackend", "DEFAULT_FFT_CHUNK_WINDOWS"]

#: Default windows-per-dispatch ceiling.  It bounds the transient
#: spectrum block of one dispatch (64 × 2049 complex bins ≈ 2 MB), so
#: two DSP lanes together hold less than one lane did at the old 512,
#: where a fine pass's 241 windows made one ≈ 8 MB block.  300 rounds in
#: one process peaked at 121 MiB on two lanes at 64, against 137 MiB on
#: two lanes and 122 MiB on one lane at 512 (2-CPU host).  It costs no
#: speed: a 241-window fine pass took 5.4–6.0 ms in chunks of 64 and
#: 5.8–6.8 ms whole.
DEFAULT_FFT_CHUNK_WINDOWS = 64


class DSPBackend:
    """Base class for DSP kernel providers.

    Subclasses override :meth:`rfft` and :meth:`convolve` and set
    :attr:`name`.  Instances are cheap, stateless, and shared across the
    DSP lanes' threads.  :attr:`fft_chunk_windows` is fixed at
    construction: the ``fft_chunk_windows`` argument, else
    :data:`DEFAULT_FFT_CHUNK_WINDOWS`.
    """

    #: Backend name, recorded in capture-corpus manifests.
    name: str = "base"

    #: Whether the kernels are bit-compatible with the numpy reference
    #: *by construction* (true for NumpyBackend; a wrapper copies its
    #: inner backend's value).
    bit_compatible: bool = False

    def __init__(self, fft_chunk_windows: int | None = None) -> None:
        if fft_chunk_windows is not None and fft_chunk_windows < 2:
            raise ValueError(
                f"fft_chunk_windows must be >= 2, got {fft_chunk_windows}"
            )
        #: Windows per FFT dispatch; any value yields bit-identical
        #: results (see the module docstring).
        self.fft_chunk_windows = fft_chunk_windows or DEFAULT_FFT_CHUNK_WINDOWS

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<{type(self).__name__} name={self.name!r}>"

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def rfft(self, batch: np.ndarray, axis: int = -1) -> np.ndarray:
        """Batched real FFT along ``axis``.

        ``batch`` may be strided (e.g. a sliding-window view sliced at the
        scan step): backends must accept it without requiring the caller
        to materialize a contiguous copy first.
        """
        raise NotImplementedError

    def window_powers(
        self, windows: np.ndarray, rfft_bins: np.ndarray, length: int
    ) -> np.ndarray:
        """Aggregated per-candidate powers for a window batch.

        Parameters
        ----------
        windows:
            ``(n_windows, length)`` real batch — possibly a strided view.
        rfft_bins:
            ``(n_candidates, n_agg)`` integer matrix of rfft bin indices
            (the paper's ±θ aggregation bins folded onto the half
            spectrum).
        length:
            FFT length (``windows.shape[1]``), the ``N`` of the
            ``(2·|X[k]|/N)²`` normalization.

        Returns
        -------
        numpy.ndarray
            ``(n_windows, n_candidates)`` float64 matrix, by the exact
            reference arithmetic over :meth:`rfft`.
        """
        spectra = self.rfft(windows, axis=1)
        gathered = spectra[:, rfft_bins]
        return np.square(2.0 * np.abs(gathered) / length).sum(axis=2)

    def convolve(self, signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
        """Full 1-D convolution (``np.convolve`` semantics)."""
        raise NotImplementedError

    def convolve_batch(
        self, signals: np.ndarray, taps: np.ndarray
    ) -> np.ndarray:
        """Row-wise full convolution of equal-shape (signal, taps) pairs.

        A kernel for callers holding many equal-shape rows; the mixer
        renders one capture at a time and convolves each arrival with
        :meth:`convolve`.

        Parameters
        ----------
        signals:
            ``(batch, n)`` stack of signals.
        taps:
            ``(batch, m)`` stack of filter taps.

        Returns
        -------
        numpy.ndarray
            ``(batch, n + m - 1)`` stack; row ``b`` equals
            ``self.convolve(signals[b], taps[b])``.
        """
        signals = np.asarray(signals)
        taps = np.asarray(taps)
        if signals.ndim != 2 or taps.ndim != 2:
            raise ValueError(
                "convolve_batch expects 2-D stacks, got shapes "
                f"{signals.shape} and {taps.shape}"
            )
        if signals.shape[0] != taps.shape[0]:
            raise ValueError(
                f"{signals.shape[0]} signals but {taps.shape[0]} tap rows"
            )
        out = np.empty(
            (signals.shape[0], signals.shape[1] + taps.shape[1] - 1),
            dtype=np.result_type(signals.dtype, taps.dtype, np.float64),
        )
        for row in range(signals.shape[0]):
            out[row] = self.convolve(signals[row], taps[row])
        return out

    def sosfilt(self, sos: np.ndarray, signal: np.ndarray) -> np.ndarray:
        """Second-order-section IIR filtering along the last axis.

        scipy's compiled loop is the kernel (:func:`repro.dsp.iir.sosfilt`);
        it gets its own writable copy of ``sos``, so frozen cached designs
        (:func:`repro.acoustics.noise._lowpass_sos`) pass as they are.
        """
        return iir.sosfilt(sos, signal)
