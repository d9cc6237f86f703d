"""Tests for the DSP backend layer (`repro.dsp.backend`).

The contract under test:

* the numpy kernels are **bit-compatible** with the inline expressions
  the hot paths used before the backend seam existed (FFT, window
  powers, convolution, sosfilt) — on contiguous *and* strided inputs;
* every run uses them: nothing in the environment selects another
  backend, and an installed wrapper is restored afterwards.
"""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.dsp.backend import (
    DEFAULT_FFT_CHUNK_WINDOWS,
    NumpyBackend,
    get_backend,
    set_backend,
    use_backend,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


@pytest.fixture()
def window_batch(rng):
    return rng.normal(size=(17, 1024))


@pytest.fixture()
def agg_bins(rng):
    return rng.integers(0, 513, size=(6, 5))


def _reference_window_powers(windows, bins, length):
    """The pre-backend inline arithmetic, verbatim."""
    spectra = np.fft.rfft(windows, axis=1)
    gathered = spectra[:, bins]
    return np.square(2.0 * np.abs(gathered) / length).sum(axis=2)


# ----------------------------------------------------------------------
# The process-wide backend
# ----------------------------------------------------------------------


def test_default_selection_is_numpy():
    previous = set_backend(None)
    try:
        assert isinstance(get_backend(), NumpyBackend)
    finally:
        set_backend(previous)


def test_environment_selects_nothing(monkeypatch):
    # A stale variable in a shell must not change the kernels a run uses.
    monkeypatch.setenv("REPRO_DSP_BACKEND", "scipy")
    monkeypatch.setenv("REPRO_DSP_CHUNK", "37")
    previous = set_backend(None)
    try:
        backend = get_backend()
        assert type(backend) is NumpyBackend and backend.name == "numpy"
        assert backend.fft_chunk_windows == DEFAULT_FFT_CHUNK_WINDOWS
    finally:
        set_backend(previous)


def test_use_backend_restores_previous():
    baseline = get_backend()
    wrapper = NumpyBackend(fft_chunk_windows=13)
    with use_backend(wrapper) as backend:
        assert backend is wrapper
        assert get_backend() is wrapper
    assert get_backend() is baseline


def test_chunk_below_two_windows_is_rejected():
    # A one-window chunk would sum its bins in another order.
    with pytest.raises(ValueError):
        NumpyBackend(fft_chunk_windows=1)


# ----------------------------------------------------------------------
# Numpy default: bit-compatibility with the pre-backend expressions
# ----------------------------------------------------------------------


def test_numpy_rfft_is_np_fft_rfft(window_batch):
    assert np.array_equal(
        NumpyBackend().rfft(window_batch, axis=1),
        np.fft.rfft(window_batch, axis=1),
    )


def test_numpy_window_powers_bit_identical(window_batch, agg_bins):
    assert np.array_equal(
        NumpyBackend().window_powers(window_batch, agg_bins, 1024),
        _reference_window_powers(window_batch, agg_bins, 1024),
    )


def test_numpy_window_powers_strided_slab_bit_identical(rng, agg_bins):
    """A zero-copy strided slab equals the gathered contiguous batch.

    This is the equivalence the detector's scan path rests on: feeding
    the sliding-window view sliced at the scan step straight to the FFT
    kernel reproduces the gathered windows' powers bit for bit.
    """
    flat = rng.normal(size=6_000)
    view = np.lib.stride_tricks.sliding_window_view(flat, 1024)
    slab = view[100:3100:10]
    gathered = np.ascontiguousarray(slab)
    backend = NumpyBackend()
    assert np.array_equal(
        backend.window_powers(slab, agg_bins, 1024),
        backend.window_powers(gathered, agg_bins, 1024),
    )


def test_numpy_convolve_batch_rows_equal_np_convolve(rng):
    signals = rng.normal(size=(5, 300))
    taps = rng.normal(size=(5, 41))
    out = NumpyBackend().convolve_batch(signals, taps)
    assert out.shape == (5, 340)
    for row in range(5):
        assert np.array_equal(out[row], np.convolve(signals[row], taps[row]))


def test_convolve_batch_validates_shapes(rng):
    backend = NumpyBackend()
    with pytest.raises(ValueError):
        backend.convolve_batch(rng.normal(size=300), rng.normal(size=(1, 3)))
    with pytest.raises(ValueError):
        backend.convolve_batch(
            rng.normal(size=(2, 300)), rng.normal(size=(3, 5))
        )


def test_sosfilt_accepts_frozen_designs(rng):
    sos = sp_signal.butter(4, 3000.0, btype="low", fs=44_100.0, output="sos")
    frozen = sos.copy()
    frozen.setflags(write=False)
    x = rng.normal(size=2_000)
    assert np.array_equal(
        NumpyBackend().sosfilt(frozen, x), sp_signal.sosfilt(sos, x)
    )


def test_sosfilt_stacked_rows_equal_solo_rows(rng):
    """Row-stacked filtering (the batched noise pass) is bit-exact."""
    sos = sp_signal.butter(4, 3000.0, btype="low", fs=44_100.0, output="sos")
    stack = rng.normal(size=(4, 2_000))
    batched = NumpyBackend().sosfilt(sos, stack)
    for row in range(4):
        assert np.array_equal(batched[row], sp_signal.sosfilt(sos, stack[row]))
