"""The noise bed's IIR low-pass: a Butterworth design and its filter loop.

:mod:`repro.acoustics.noise` colors white noise with a digital
Butterworth low-pass in second-order sections.  ``scipy.signal`` used to
provide both halves, and importing it cost every process that renders a
round ~0.8 s and ~78 MiB (it loads scipy's ``stats``, ``interpolate``,
``optimize`` and ``spatial`` packages).  This module provides the same two halves
without that import:

* :func:`butter_lowpass_sos` is a numpy port of scipy's digital
  low-pass path (``buttap`` → ``lp2lp_zpk`` → ``bilinear_zpk`` →
  ``zpk2sos`` with ``nearest`` pairing), cut to the branches a low-pass
  Butterworth reaches: its zeros all sit at z = −1 (plus one at 0 for
  an odd order), and its real poles come in pairs after the odd-order
  padding.  It returns the bytes of ``scipy.signal.butter(order,
  cutoff_hz, btype="low", fs=sample_rate, output="sos")``;
* :func:`sosfilt` runs scipy's compiled ``_sosfilt`` kernel, loaded
  once from its extension file when this module is imported, so
  ``scipy/signal/__init__.py`` never runs.

``tests/test_dsp_backend.py`` holds both to ``scipy.signal`` byte for
byte; a scipy release that changes either fails there.
"""

from __future__ import annotations

import importlib.util
import operator
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

import numpy as np

__all__ = ["butter_lowpass_sos", "sosfilt"]

#: The compiled module's own name.  It registers itself in
#: ``sys.modules`` under it, so a later ``import scipy.signal`` reuses
#: this module instead of initialising the extension a second time.
_KERNEL_MODULE = "scipy.signal._sosfilt"


def _load_kernel():
    """scipy's compiled ``_sosfilt(sos, x, zi)``, without ``scipy.signal``.

    Runs at import time, under the import lock: two DSP lanes filtering
    their first noise beds at once must never see a half-loaded module.
    """
    module = sys.modules.get(_KERNEL_MODULE)
    if module is None:
        import scipy

        directory = Path(scipy.__file__).parent / "signal"
        paths = [directory / f"_sosfilt{suffix}" for suffix in EXTENSION_SUFFIXES]
        path = next((path for path in paths if path.is_file()), None)
        if path is None:
            raise ImportError(
                f"scipy {scipy.__version__} has no compiled _sosfilt kernel "
                f"in {directory}"
            )
        loader = ExtensionFileLoader(_KERNEL_MODULE, str(path))
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(_KERNEL_MODULE, loader)
        )
        loader.exec_module(module)
        sys.modules.setdefault(_KERNEL_MODULE, module)
    return module._sosfilt


_sosfilt = _load_kernel()


def sosfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Filter ``x`` along its last axis from rest: ``scipy.signal.sosfilt``.

    Mirrors scipy's wrapper: the kernel filters a C-contiguous float64
    ``(rows, n)`` copy of ``x`` in place with zero initial state, and
    takes a writable float64 copy of ``sos`` (it rejects read-only
    buffers, such as the frozen cached designs).
    """
    sos = np.array(sos, dtype=np.float64, order="C")
    if sos.ndim != 2 or sos.shape[1] != 6:  # the kernel does not check
        raise ValueError(f"sos must have shape (n_sections, 6), got {sos.shape}")
    x = np.asarray(x)
    rows = np.array(np.reshape(x, (-1, x.shape[-1])), np.float64, order="C")
    zi = np.zeros((rows.shape[0], sos.shape[0], 2))
    _sosfilt(sos, rows, zi)
    return rows.reshape(x.shape)


def _poly(roots: np.ndarray) -> np.ndarray:
    """Polynomial coefficients from roots, by scipy's convolution loop."""
    coefficients = np.ones(1, dtype=roots.dtype)
    for root in roots:
        coefficients = np.convolve(
            coefficients, np.stack((np.ones_like(root), -root))
        )
    return coefficients


def _closest_to_unit_circle(poles: np.ndarray) -> int:
    return int(np.argmin(np.abs(1 - np.abs(poles))))


def butter_lowpass_sos(
    order: int, cutoff_hz: float, sample_rate: float
) -> np.ndarray:
    """Digital Butterworth low-pass in second-order sections.

    The same bytes as ``scipy.signal.butter(order, cutoff_hz, btype="low",
    fs=sample_rate, output="sos")``: each step keeps scipy's arithmetic
    and operand order, because one reordered product moves a bit.
    """
    order = operator.index(order)
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    wn = np.asarray(cutoff_hz, dtype=np.float64) / (float(sample_rate) / 2)
    if not 0 < wn < 1:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie in (0, {float(sample_rate) / 2}) Hz"
        )
    # buttap: unit-cutoff analog prototype (the middle pole exactly real).
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    poles = -np.exp(1j * np.pi * m / (2 * order))
    # Pre-warp at fs = 2, then lp2lp_zpk.
    warped = float(2 * 2.0 * np.tan(np.pi * wn / 2.0))
    poles = warped * poles
    # bilinear_zpk: the zeros at infinity move to Nyquist (z = -1).
    gain = warped**order * np.real(np.float64(1.0) / np.prod(4.0 - poles))
    poles = (4.0 + poles) / (4.0 - poles)
    zeros = -np.ones(order)
    # zpk2sos, nearest pairing: an odd order pads a pole and a zero at 0
    # (the zeros stay sorted, as scipy sorts them).
    n_sections = (order + 1) // 2
    if order % 2:
        poles = np.concatenate((poles, [0.0]))
        zeros = np.concatenate((zeros, [0.0]))
    # _cplxreal: one pole per conjugate pair (averaged), then the reals.
    poles = poles[np.lexsort((abs(poles.imag), poles.real))]
    real = abs(poles.imag) <= 100 * np.finfo(np.float64).eps * abs(poles)
    upper = poles[~real & (poles.imag > 0)]
    lower = poles[~real & (poles.imag < 0)]
    poles = np.concatenate(((upper + lower.conj()) / 2, poles[real].real))

    sos = np.zeros((n_sections, 6))
    for section in range(n_sections - 1, -1, -1):
        index = _closest_to_unit_circle(poles)
        p1 = poles[index]
        poles = np.delete(poles, index)
        if np.isreal(p1):
            reals = np.flatnonzero(np.isreal(poles))
            index = reals[_closest_to_unit_circle(poles[reals])]
            p2 = poles[index]
            poles = np.delete(poles, index)
        else:
            p2 = p1.conj()
        pair = []
        for _ in range(2):
            index = np.argsort(np.abs(zeros - p1))[0]
            pair.append(zeros[index])
            zeros = np.delete(zeros, index)
        sos[section, :3] = _poly(np.asarray(pair))
        sos[section, 3:] = np.real(_poly(np.asarray([p1, p2])))
    sos[0, :3] *= gain
    return sos
