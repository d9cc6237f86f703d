"""Traced probes shared by the workloads: stage drive, codec timing, equality.

``drive_stages`` runs a seeded sample of a workload's rounds through the
program's ``BatchedSessionRunner`` at the workload's batch size, under a
:class:`~tracing.CountingBackend`, so kernel, detection and stage costs
are measured per round.
"""

from __future__ import annotations

import dataclasses
import hashlib
from time import perf_counter

import numpy as np

from stats import Measured
from tracing import KERNELS, CountingBackend, Tracer, self_time_s

__all__ = ["canonical_digest", "codec_us", "drive_stages", "stage_metrics"]

#: ``BatchedSessionRunner`` stages, in the order it accounts them.
STAGES = ("prepare", "render", "detect", "decide")
#: Least time spent encoding (and decoding) the workload's messages.
CODEC_MIN_S = 0.2


def _canonical(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((repr(k), _canonical(v)) for k, v in value.items()))
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, np.floating):
        return float.hex(float(value))
    return repr(value)


def canonical_digest(value) -> str:
    """Exact digest of a (nested) result: every float bit and array byte."""
    return hashlib.sha256(repr(_canonical(value)).encode()).hexdigest()


class _StageClock(dict):
    """A ``stage_timings`` dict that also keeps each stage's interval.

    ``BatchedSessionRunner`` adds a stage's seconds to its entry as the
    stage ends; the time of that write and the seconds added bound the
    stage, so the runner's own accounting becomes spans.
    """

    def __init__(self) -> None:
        super().__init__()
        self.intervals: list[tuple[str, float, float]] = []

    def __setitem__(self, stage: str, seconds: float) -> None:
        end = perf_counter()
        self.intervals.append((stage, end - (seconds - self.get(stage, 0.0)), end))
        super().__setitem__(stage, seconds)


def drive_stages(rounds, batch: int, tracer: Tracer):
    """Run ``(spec, trial)`` rounds through the program's ``BatchedSessionRunner``.

    Each batch of ``batch`` rounds is built and run inside one
    ``round.batch`` span under a :class:`~tracing.CountingBackend`.  The
    runner's ``stage_timings`` become ``stage.<name>`` spans, and each
    kernel span moves under the stage it ran in: that nesting is what
    detection self time (detect stage minus its kernels) is read from.
    Returns ``(outcomes, kernel_counts, batches)``; outcomes are in input
    order and must equal the program's own for the same trials.
    """
    from repro.dsp.backend import get_backend, use_backend
    from repro.eval.engine import build_trial_session
    from repro.sim.pipeline import BatchedSessionRunner

    counting = CountingBackend(get_backend(), tracer)
    clock = _StageClock()
    runner = BatchedSessionRunner(batch, stage_timings=clock)
    outcomes = []
    batch_ids = []
    with use_backend(counting):
        for start in range(0, len(rounds), batch):
            with tracer.span("round.batch") as batch_id:
                sessions = [
                    build_trial_session(spec, trial)
                    for spec, trial in rounds[start : start + batch]
                ]
                outcomes.extend(runner.run(sessions))
            batch_ids.append(batch_id)
    # The runner accounts every stage of every batch, in order.
    stages = []
    for index, (stage, start, end) in enumerate(clock.intervals):
        parent = batch_ids[index // len(STAGES)]
        stages.append((start, end, tracer.add(f"stage.{stage}", start, end, parent=parent)))
    top = set(batch_ids)
    for index, span in enumerate(tracer.spans):
        if span.parent in top and span.name.startswith("dsp."):
            for start, end, stage_id in stages:
                if start <= span.start < end:
                    tracer.spans[index] = dataclasses.replace(span, parent=stage_id)
                    break
    return outcomes, counting.counts, len(batch_ids)


def stage_metrics(tracer: Tracer, counts, batches: int, n_rounds: int) -> dict[str, Measured]:
    """Per-round kernel, detection and stage figures from one stage drive."""
    spans = tracer.spans
    selfs = self_time_s(spans)
    metrics: dict[str, Measured] = {}
    for kernel in KERNELS:
        calls, nbytes = counts[kernel]
        metrics[f"dsp.{kernel}.calls_per_round"] = Measured(calls / n_rounds, n_rounds)
        metrics[f"dsp.{kernel}.ms_per_round"] = Measured(
            1e3 * selfs.get(f"dsp.{kernel}", 0.0) / n_rounds, n_rounds
        )
        metrics[f"dsp.{kernel}.mb_per_round"] = Measured(nbytes / 1e6 / n_rounds, n_rounds)
    metrics["detection.self_ms_per_round"] = Measured(
        1e3 * selfs.get("stage.detect", 0.0) / n_rounds, n_rounds
    )
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    for stage in STAGES:
        metrics[f"pipeline.{stage}_ms_per_round"] = Measured(
            1e3 * totals.get(f"stage.{stage}", 0.0) / n_rounds, n_rounds
        )
    # Sessions per runner batch: the rounds one stacked DSP pass carries.
    metrics["pipeline.rounds_per_pass"] = Measured(n_rounds / batches, batches)
    # Ledger inputs (not reported as metrics): whole-round wall time.
    metrics["_round_ms"] = Measured(1e3 * totals.get("round.batch", 0.0) / n_rounds, n_rounds)
    metrics["_kernel_ms"] = Measured(
        sum(1e3 * selfs.get(f"dsp.{k}", 0.0) for k in KERNELS) / n_rounds, n_rounds
    )
    return metrics


def codec_us(messages) -> tuple[Measured, Measured]:
    """Mean encode and decode time per message, over the workload's messages."""
    from repro.service import decode_message, encode_message

    lines = [encode_message(message) for message in messages]
    results = []
    for work in (
        lambda: [encode_message(message) for message in messages],
        lambda: [decode_message(line) for line in lines],
    ):
        reps = 0
        start = perf_counter()
        while True:
            work()
            reps += 1
            elapsed = perf_counter() - start
            if elapsed >= CODEC_MIN_S:
                break
        results.append(Measured(1e6 * elapsed / (reps * len(messages)), reps * len(messages)))
    return results[0], results[1]
