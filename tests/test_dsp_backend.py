"""Tests for the pluggable DSP backend layer (`repro.dsp.backend`).

The contract under test, in order of strictness:

* the numpy default is **bit-compatible** with the inline expressions the
  hot paths used before the backend seam existed (FFT, window powers,
  convolution, sosfilt) — on contiguous *and* strided inputs;
* alternate backends agree within the documented float tolerance
  (``1e-10`` relative on window powers / convolution);
* with no explicit choice the numpy reference is installed, and explicit
  selection (name, env var, context manager) is honored.
"""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.dsp.backend import (
    BACKEND_ENV_VAR,
    DEFAULT_FFT_CHUNK_WINDOWS,
    NumpyBackend,
    ScipyBackend,
    available_backends,
    create_backend,
    get_backend,
    select_backend,
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
# Registry and selection
# ----------------------------------------------------------------------


def test_numpy_and_scipy_always_available():
    names = available_backends()
    assert "numpy" in names and "scipy" in names
    # The registry names each backend's module; the class it creates
    # must answer to the same name.
    assert [create_backend(name).name for name in names] == list(names)


def test_create_backend_unknown_name_lists_choices():
    with pytest.raises(ValueError, match="numpy"):
        create_backend("cuda-quantum")


def test_env_var_selection(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "scipy")
    assert isinstance(select_backend(), ScipyBackend)
    monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
    assert isinstance(select_backend(), NumpyBackend)


def test_explicit_name_overrides_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "scipy")
    assert isinstance(select_backend("numpy"), NumpyBackend)


def test_default_selection_is_numpy(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    assert isinstance(select_backend(), NumpyBackend)


def test_use_backend_restores_previous():
    baseline = get_backend()
    with use_backend("scipy") as backend:
        assert backend.name == "scipy"
        assert get_backend() is backend
    assert get_backend() is baseline


def test_set_backend_accepts_instance_and_name():
    previous = set_backend("scipy")
    try:
        assert get_backend().name == "scipy"
        set_backend(NumpyBackend())
        assert get_backend().name == "numpy"
    finally:
        set_backend(previous)


def test_chunk_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_DSP_CHUNK", "37")
    assert NumpyBackend().fft_chunk_windows == 37
    monkeypatch.delenv("REPRO_DSP_CHUNK")
    assert NumpyBackend().fft_chunk_windows == DEFAULT_FFT_CHUNK_WINDOWS


def test_chunk_below_two_windows_is_rejected(monkeypatch):
    # A one-window chunk would sum its bins in another order.
    with pytest.raises(ValueError):
        NumpyBackend(fft_chunk_windows=1)
    monkeypatch.setenv("REPRO_DSP_CHUNK", "1")
    with pytest.raises(ValueError):
        NumpyBackend()


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


# ----------------------------------------------------------------------
# Alternate backends: documented tolerance
# ----------------------------------------------------------------------


def _alternate_backends():
    return [name for name in available_backends() if name != "numpy"]


@pytest.mark.parametrize("name", _alternate_backends())
def test_alternate_window_powers_within_tolerance(name, window_batch, agg_bins):
    reference = _reference_window_powers(window_batch, agg_bins, 1024)
    powers = create_backend(name).window_powers(window_batch, agg_bins, 1024)
    np.testing.assert_allclose(powers, reference, rtol=1e-10)


@pytest.mark.parametrize("name", _alternate_backends())
def test_alternate_convolve_batch_within_tolerance(name, rng):
    signals = rng.normal(size=(4, 500))
    taps = rng.normal(size=(4, 61))
    reference = np.stack(
        [np.convolve(signals[i], taps[i]) for i in range(4)]
    )
    out = create_backend(name).convolve_batch(signals, taps)
    np.testing.assert_allclose(out, reference, rtol=1e-10, atol=1e-12)

