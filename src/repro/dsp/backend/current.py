"""The process-wide backend: :class:`NumpyBackend` unless one is installed.

:func:`set_backend` and :func:`use_backend` install a backend instance
(tests and benchmarks wrap the numpy kernels to count or trace them);
with none installed, :func:`get_backend` creates the numpy backend on
first use.  Nothing selects a backend by name or from the environment.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.dsp.backend.base import DSPBackend

__all__ = ["get_backend", "set_backend", "use_backend"]

_current: DSPBackend | None = None


def get_backend() -> DSPBackend:
    """The process-wide backend, creating the numpy backend on first use."""
    global _current
    if _current is None:
        from repro.dsp.backend.numpy_backend import NumpyBackend

        _current = NumpyBackend()
    return _current


def set_backend(backend: DSPBackend | None) -> DSPBackend | None:
    """Install ``backend`` (None resets to the numpy default).

    Returns the previously installed backend (None if none had been
    created yet), so callers can restore it.
    """
    global _current
    previous, _current = _current, backend
    return previous


@contextmanager
def use_backend(backend: DSPBackend) -> Iterator[DSPBackend]:
    """Temporarily install a backend (tests, benchmarks)."""
    previous = set_backend(backend)
    try:
        yield get_backend()
    finally:
        set_backend(previous)
