"""Backend registry, selection, and the process-wide default.

Selection precedence, first hit wins:

1. an explicit :func:`set_backend` / :func:`use_backend` call (tests, the
   CLI's ``--dsp-backend`` flag);
2. the ``REPRO_DSP_BACKEND`` environment variable (how the CLI flag
   reaches worker processes of the parallel trial engine);
3. :class:`~repro.dsp.backend.numpy_backend.NumpyBackend`, the
   bit-compatible reference.

Rule 3 is what keeps ``run-all`` tables byte-identical on any host: a
backend with different rounding (scipy's overlap-add ``convolve_batch``)
is never installed silently; it has to be asked for by name, and then
its documented float tolerance applies.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.dsp.backend.base import DSPBackend
from repro.dsp.backend.numpy_backend import NumpyBackend
from repro.dsp.backend.scipy_backend import ScipyBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "available_backends",
    "create_backend",
    "select_backend",
    "get_backend",
    "set_backend",
    "use_backend",
]

#: Environment override for the default backend (a registry name).
BACKEND_ENV_VAR = "REPRO_DSP_BACKEND"

_REGISTRY: dict[str, type[DSPBackend]] = {
    NumpyBackend.name: NumpyBackend,
    ScipyBackend.name: ScipyBackend,
}


def available_backends() -> tuple[str, ...]:
    """Names of the registered backends."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str) -> DSPBackend:
    """Instantiate a backend by registry name (raises on unknown)."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(available_backends())
        raise ValueError(
            f"unknown DSP backend {name!r}; available: {known}"
        ) from None


def select_backend(name: str | None = None) -> DSPBackend:
    """Resolve a backend instance from a name, the env var, or the default.

    ``name=None`` consults :data:`BACKEND_ENV_VAR` and falls back to the
    numpy reference backend.
    """
    name = name or os.environ.get(BACKEND_ENV_VAR)
    return create_backend(name) if name else NumpyBackend()


# ----------------------------------------------------------------------
# Process-wide current backend
# ----------------------------------------------------------------------

_current: DSPBackend | None = None


def get_backend() -> DSPBackend:
    """The process-wide backend, resolving it on first use."""
    global _current
    if _current is None:
        _current = select_backend()
    return _current


def set_backend(backend: DSPBackend | str | None) -> DSPBackend | None:
    """Install ``backend`` (an instance, a name, or None to reset).

    Returns the previously installed backend (None if selection had not
    run yet), so callers can restore it.
    """
    global _current
    previous = _current
    if isinstance(backend, str):
        backend = create_backend(backend)
    _current = backend
    return previous


@contextmanager
def use_backend(backend: DSPBackend | str) -> Iterator[DSPBackend]:
    """Temporarily install a backend (tests, benchmarks)."""
    previous = set_backend(backend)
    try:
        yield get_backend()
    finally:
        set_backend(previous)
