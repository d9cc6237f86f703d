"""The DSP kernels behind the ranging hot paths.

Every spectral hot path — the detector's ``rfft``/window-power passes,
the mixer's arrival convolutions, the noise-shaping ``sosfilt`` — calls
through the process-wide :class:`DSPBackend` instead of numpy or
:mod:`repro.dsp.iir` directly.  See :mod:`repro.dsp.backend.base` for
the kernel contract.

There is one set of kernels, :class:`NumpyBackend`, and every run uses
it.  The seam stays so that a wrapper (a counting or tracing backend)
can be installed around it with :func:`set_backend` / :func:`use_backend`.

Invariants every caller may rely on:

1. **The numpy kernels are the reference** — each performs exactly the
   pre-backend-seam arithmetic, so they define what "correct bits" means
   for the whole repo.
2. **Kernels are row-wise independent and stateless** — chunking
   (``fft_chunk_windows``, never leaving a lone window) and threading
   (the DSP lanes of :mod:`repro.dsp.lanes`) are dispatch decisions that
   cannot change any row's bits, which is what makes running captures on
   several threads at once safe.

The package exports lazily (PEP 562), so importing it loads no numpy
until a name that needs it is used.
"""

from __future__ import annotations

from repro import _lazy_exports

__all__ = [
    "DSPBackend",
    "NumpyBackend",
    "DEFAULT_FFT_CHUNK_WINDOWS",
    "get_backend",
    "set_backend",
    "use_backend",
]

#: Where each exported name is defined; ``__getattr__`` imports it on
#: first access.
_EXPORTS = {
    "DSPBackend": "repro.dsp.backend.base",
    "DEFAULT_FFT_CHUNK_WINDOWS": "repro.dsp.backend.base",
    "NumpyBackend": "repro.dsp.backend.numpy_backend",
    "get_backend": "repro.dsp.backend.current",
    "set_backend": "repro.dsp.backend.current",
    "use_backend": "repro.dsp.backend.current",
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
