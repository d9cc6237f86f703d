"""Pluggable DSP kernel backends for the ranging hot paths.

Every spectral hot path — the detector's batched ``rfft``/window-power
passes, the mixer's arrival convolutions, the noise-shaping ``sosfilt`` —
calls through a process-wide :class:`DSPBackend` instead of numpy/scipy
directly.  See :mod:`repro.dsp.backend.base` for the kernel contract and
:mod:`repro.dsp.backend.select` for the selection machinery.

Invariants every caller may rely on (and every new backend must honor):

1. **The numpy backend is the bit-compatible reference** — each of its
   kernels performs exactly the pre-backend-seam arithmetic, so results
   under it define what "correct bits" means for the whole repo.
2. **The default never changes bits** — with no explicit choice
   (``--dsp-backend`` / :func:`set_backend` / ``REPRO_DSP_BACKEND``), the
   numpy reference is installed; experiment tables therefore never change
   bytes unless a backend is asked for by name.
3. **Named backends have a documented tolerance** — an explicitly
   selected non-reference backend (scipy) may round differently but
   must stay within 1e-10 relative of the reference
   (``tests/test_dsp_backend.py``).
4. **Kernels are row-wise independent and stateless** — batching,
   chunking (``fft_chunk_windows`` / ``REPRO_DSP_CHUNK``, never leaving
   a lone window), and threading (scipy ``workers=``, the DSP lanes of
   :mod:`repro.dsp.lanes`) are dispatch decisions that cannot change any
   row's bits, which is what makes cross-session batching and running
   captures on several threads at once safe.

Selection precedence: explicit > ``REPRO_DSP_BACKEND`` > numpy.

The package exports lazily (PEP 562), so importing it loads no numpy:
``from repro.dsp.backend import available_backends`` costs only the
registry in :mod:`repro.dsp.backend.select`.
"""

from __future__ import annotations

from repro import _lazy_exports

__all__ = [
    "DSPBackend",
    "NumpyBackend",
    "ScipyBackend",
    "BACKEND_ENV_VAR",
    "CHUNK_ENV_VAR",
    "DEFAULT_FFT_CHUNK_WINDOWS",
    "available_backends",
    "create_backend",
    "get_backend",
    "select_backend",
    "set_backend",
    "use_backend",
]

#: Where each exported name is defined; ``__getattr__`` imports it on
#: first access.
_EXPORTS = {
    "DSPBackend": "repro.dsp.backend.base",
    "CHUNK_ENV_VAR": "repro.dsp.backend.base",
    "DEFAULT_FFT_CHUNK_WINDOWS": "repro.dsp.backend.base",
    "NumpyBackend": "repro.dsp.backend.numpy_backend",
    "ScipyBackend": "repro.dsp.backend.scipy_backend",
    "BACKEND_ENV_VAR": "repro.dsp.backend.select",
    "available_backends": "repro.dsp.backend.select",
    "create_backend": "repro.dsp.backend.select",
    "get_backend": "repro.dsp.backend.select",
    "select_backend": "repro.dsp.backend.select",
    "set_backend": "repro.dsp.backend.select",
    "use_backend": "repro.dsp.backend.select",
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
