"""Spans and counters recorded around the benchmark's calls into each layer.

Nothing here reaches inside the program: spans wrap the public entry
points the benchmark calls (experiments, ``TrialEngine.run_plan`` /
``map_tasks``, pipeline stage functions, ``AuthClient`` /
``AuthService.handle_request`` requests), and DSP kernels are counted by
:class:`CountingBackend`, a delegating backend installed with
``repro.dsp.backend.use_backend``.

Import it after the checkout's ``src`` is on ``sys.path``.

A span is ``(id, name, start, end, parent, request)`` on the monotonic
``perf_counter`` clock, which Linux shares across processes, so spans a
child process recorded line up with the parent's.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from time import perf_counter
from typing import Iterable, Iterator

from repro.dsp.backend import DSPBackend

__all__ = [
    "KERNELS",
    "CountingBackend",
    "Span",
    "Tracer",
    "covered_s",
    "self_time_s",
]

#: The DSP backend kernels (``repro.dsp.backend.DSPBackend``).
KERNELS = ("rfft", "window_powers", "convolve", "convolve_batch", "sosfilt")


@dataclass(frozen=True)
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: str | None = None
    request: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    ``cost_s`` accumulates the time spent inside the recorder itself, so
    a run can state what tracing cost it.
    """

    def __init__(self, enabled: bool = True, prefix: str = "") -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.cost_s = 0.0
        self._ids = itertools.count()
        self._prefix = f"{prefix}{os.getpid()}-"
        self._stack: list[str] = []

    def _new_id(self) -> str:
        return f"{self._prefix}{next(self._ids)}"

    @contextmanager
    def span(self, name: str) -> Iterator[str | None]:
        """Time the ``with`` body as a child of the innermost open span.

        For synchronous code only; concurrent tasks record with
        :meth:`add` and name their parent explicitly.
        """
        if not self.enabled:
            yield None
            return
        mark = perf_counter()
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        self.cost_s += start - mark
        try:
            yield span_id
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent))
            self.cost_s += perf_counter() - end

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: str | None = None,
        request: str | None = None,
    ) -> str | None:
        """Record an already-timed interval; returns its id."""
        if not self.enabled:
            return None
        mark = perf_counter()
        span_id = self._new_id()
        self.spans.append(Span(span_id, name, start, end, parent, request))
        self.cost_s += perf_counter() - mark
        return span_id

    def extend(self, spans: Iterable[dict]) -> None:
        """Adopt spans another process wrote out with :meth:`write`."""
        self.spans.extend(Span(**span) for span in spans)

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def covered_s(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_time_s(spans: list[Span], names: Iterable[str] | None = None) -> dict[str, float]:
    """Self time summed per span name: duration minus covered child time.

    ``names`` restricts the result to those span names (all by default).
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    wanted = None if names is None else set(names)
    totals: dict[str, float] = {}
    for span in spans:
        if wanted is not None and span.name not in wanted:
            continue
        own = span.duration - covered_s(span.start, span.end, children.get(span.id, ()))
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


class CountingBackend(DSPBackend):
    """Delegates every kernel to ``inner`` and records a span per call.

    Where ``inner`` keeps the base-class ``window_powers`` /
    ``convolve_batch`` (defined in terms of ``rfft`` / ``convolve``), the
    base implementation runs on this wrapper instead, so the nested
    ``rfft`` / ``convolve`` calls are counted under their own kernel; the
    arithmetic and the bits are unchanged.  Bytes are computed from the
    array sizes (inputs plus output), not measured.
    """

    def __init__(self, inner: DSPBackend, tracer: Tracer) -> None:
        super().__init__(fft_chunk_windows=inner.fft_chunk_windows)
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.bit_compatible = inner.bit_compatible
        #: ``{kernel: [calls, bytes in + out]}``
        self.counts: dict[str, list[int]] = {k: [0, 0] for k in KERNELS}
        self._base_window_powers = (
            type(inner).window_powers is DSPBackend.window_powers
        )
        self._base_convolve_batch = (
            type(inner).convolve_batch is DSPBackend.convolve_batch
        )

    def _call(self, kernel, run, inputs):
        with self.tracer.span(f"dsp.{kernel}"):
            out = run()
        entry = self.counts[kernel]
        entry[0] += 1
        entry[1] += sum(int(a.nbytes) for a in inputs) + int(out.nbytes)
        return out

    def rfft(self, batch, axis=-1):
        return self._call("rfft", partial(self.inner.rfft, batch, axis=axis), (batch,))

    def window_powers(self, windows, rfft_bins, length):
        if self._base_window_powers:
            run = partial(DSPBackend.window_powers, self, windows, rfft_bins, length)
        else:
            run = partial(self.inner.window_powers, windows, rfft_bins, length)
        return self._call("window_powers", run, (windows,))

    def convolve(self, signal, taps):
        return self._call(
            "convolve", partial(self.inner.convolve, signal, taps), (signal, taps)
        )

    def convolve_batch(self, signals, taps):
        if self._base_convolve_batch:
            run = partial(DSPBackend.convolve_batch, self, signals, taps)
        else:
            run = partial(self.inner.convolve_batch, signals, taps)
        return self._call("convolve_batch", run, (signals, taps))

    def sosfilt(self, sos, signal):
        return self._call("sosfilt", partial(self.inner.sosfilt, sos, signal), (signal,))
