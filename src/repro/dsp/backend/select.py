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

The registry names each backend's module rather than its class, so this
module imports no numpy: ``available_backends()`` serves the CLI's
``build_parser()`` for free, and a backend's module (scipy's pulls in
``scipy.signal``) is imported only when that backend is created.
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.dsp.backend.base import DSPBackend

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

#: Registry name → (defining module, class name).  Each class's ``name``
#: attribute equals its key here.
_REGISTRY: dict[str, tuple[str, str]] = {
    "numpy": ("repro.dsp.backend.numpy_backend", "NumpyBackend"),
    "scipy": ("repro.dsp.backend.scipy_backend", "ScipyBackend"),
}


def available_backends() -> tuple[str, ...]:
    """Names of the registered backends."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str) -> DSPBackend:
    """Instantiate a backend by registry name (raises on unknown)."""
    try:
        module, cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise ValueError(
            f"unknown DSP backend {name!r}; available: {known}"
        ) from None
    return getattr(importlib.import_module(module), cls)()


def select_backend(name: str | None = None) -> DSPBackend:
    """Resolve a backend instance from a name, the env var, or the default.

    ``name=None`` consults :data:`BACKEND_ENV_VAR` and falls back to the
    numpy reference backend.
    """
    return create_backend(name or os.environ.get(BACKEND_ENV_VAR) or "numpy")


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
