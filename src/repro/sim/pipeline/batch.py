"""The shared detection seam and the stage-timed session runner.

:func:`detect_batch` is Step IV for any number of independent sessions,
one recording per DSP lane: ``run_staged`` (one session), corpus
record/replay and the streaming service's coalesced passes all route
through it.

:class:`BatchedSessionRunner` runs independent sessions stage by stage,
B at a time, and can account each stage's wall clock:

1. ``negotiate`` + ``schedule`` + ``render_noise`` execute per session,
   each on its own RNG stream — these stages *are* the stream consumers,
   so their per-trial draw order is untouched (see ``docs/pipeline.md``);
2. the render stage's deterministic half renders all 2·B captures,
   one capture job per DSP lane (``render_arrivals``);
3. ``detect`` observes all 2·B recordings, one recording per DSP lane
   (:func:`detect_batch`); each observation computes its coarse pass
   once and then the own and remote fine scans;
4. ``exchange`` executes per session, again on the session RNG, and
   returns the round's :class:`~repro.core.ranging.RangingOutcome`.

Detection is a pure function of the recordings and a recording's scans
read nothing else, so the runner's outcomes are bit-identical to the
serial staged path at every B — the equivalence tests assert this
against :func:`repro.sim.pipeline.reference.run_monolithic` as well.
The batch size changes no kernel call, so the trial engine runs one
session at a time; the runner is the stage-timed drive of the profiler
and the benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

import numpy as np

from repro.core.ranging import DeviceObservation, RangingOutcome
from repro.dsp.lanes import map_lanes
from repro.sim.pipeline.stages import (
    DetectionPair,
    NegotiationResult,
    PlannedRender,
    RenderedRecordings,
    SessionArtifacts,
    SessionContext,
    exchange,
    negotiate,
    record_schedule_artifacts,
    render_arrivals,
    render_noise,
    schedule,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.session import RangingSession

__all__ = ["BatchedSessionRunner", "detect_batch"]


def _observe(scan) -> DeviceObservation:
    """One recording's Step IV: ``(action, recording, own, remote, rate)``."""
    action, recording, own, remote, sample_rate = scan
    return action.observe(recording, own=own, remote=remote, sample_rate=sample_rate)


def detect_batch(
    entries: Sequence[
        tuple[SessionContext, NegotiationResult, RenderedRecordings]
    ],
) -> list[DetectionPair]:
    """Step IV for many independent sessions, one recording per DSP lane.

    ``entries`` pair each session's immutable context and negotiation
    result with its rendered recordings.  Each of the 2·B recordings goes
    through its session's ``action.observe`` on the process's DSP lanes
    (:func:`repro.dsp.lanes.map_lanes`) — the two calls the per-session
    :func:`~repro.sim.pipeline.stages.detect` stage makes, for any
    ranging engine.  Results come back in input order and are
    bit-identical to running ``detect`` per entry: detection is a pure
    function of each recording.

    This is the shared detection seam: ``run_staged`` (B = 1),
    :class:`BatchedSessionRunner`, corpus record/replay, and the
    streaming service's :class:`repro.service.BatchingScheduler`
    (coalesced concurrent requests) all route through it.
    """
    scans = []
    for ctx, negotiation, recordings in entries:
        signals = negotiation.signals
        scans.append(
            (
                ctx.action,
                recordings.auth,
                signals.auth,
                signals.vouch,
                ctx.auth_device.sample_rate,
            )
        )
        scans.append(
            (
                ctx.action,
                recordings.vouch,
                signals.vouch,
                signals.auth,
                ctx.vouch_device.sample_rate,
            )
        )
    observations = map_lanes(_observe, scans)
    return [
        DetectionPair(auth=observations[2 * i], vouch=observations[2 * i + 1])
        for i in range(len(entries))
    ]


class SessionLike(Protocol):
    """What the runner needs from a session (satisfied by RangingSession)."""

    context: SessionContext
    rng: np.random.Generator
    artifacts: SessionArtifacts


@dataclass
class _PreparedSession:
    """One session that survived negotiate/schedule/render_noise.

    ``recordings`` is filled in by the arrival phase.
    """

    index: int
    session: SessionLike
    negotiation: NegotiationResult
    recordings: RenderedRecordings | None = None


class BatchedSessionRunner:
    """Runs independent sessions through the pipeline, stage by stage.

    Parameters
    ----------
    batch_size:
        Sessions per batch.  ``1`` is the serial staged path; outcomes
        are identical for every value.
    stage_timings:
        Optional wall-clock accounting (see below).
    """

    def __init__(
        self,
        batch_size: int,
        stage_timings: dict[str, float] | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        self.batch_size = batch_size
        #: Optional wall-clock accounting: when a dict is supplied, each
        #: batch accumulates per-stage seconds into it under the keys
        #: ``prepare`` (negotiate+schedule+render_noise, the RNG-bound
        #: phase), ``render`` (the arrival phase on the DSP lanes),
        #: ``detect``, and ``decide``.  Used by
        #: ``benchmarks/bench_pipeline.py``,
        #: ``tools/profile_pipeline.py`` and the benchmark's stage drive;
        #: zero overhead when None.
        self.stage_timings = stage_timings

    def _account(self, stage: str, started: float) -> float:
        now = perf_counter()
        if self.stage_timings is not None:
            self.stage_timings[stage] = (
                self.stage_timings.get(stage, 0.0) + now - started
            )
        return now

    def run(
        self, sessions: Iterable["RangingSession"] | Iterable[SessionLike]
    ) -> list[RangingOutcome]:
        """Execute every session; outcomes come back in input order.

        ``sessions`` may be a lazy iterable: it is consumed one batch at
        a time, and nothing from a finished batch is retained here — so a
        generator-fed run keeps peak memory at O(batch_size) sessions
        (the caller decides how long its own session objects live).
        """
        outcomes: list[RangingOutcome] = []
        iterator = iter(sessions)
        while True:
            batch = list(itertools.islice(iterator, self.batch_size))
            if not batch:
                return outcomes
            outcomes.extend(self._run_batch(batch))

    # ------------------------------------------------------------------

    def _run_batch(self, sessions: Sequence[SessionLike]) -> list[RangingOutcome]:
        outcomes: list[RangingOutcome | None] = [None] * len(sessions)
        prepared: list[_PreparedSession] = []
        planned_renders: list[PlannedRender] = []
        mark = perf_counter()
        for index, session in enumerate(sessions):
            ctx, rng, artifacts = session.context, session.rng, session.artifacts
            negotiation = negotiate(ctx, rng)
            if artifacts is not None:
                artifacts.signals = negotiation.signals
            if negotiation.failure is not None:
                outcomes[index] = negotiation.failure
                continue
            plan = schedule(ctx, negotiation, rng)
            if artifacts is not None:
                record_schedule_artifacts(artifacts, plan)
            planned_renders.append(render_noise(ctx, plan, rng))
            prepared.append(
                _PreparedSession(index, session, negotiation, None)
            )

        mark = self._account("prepare", mark)

        # Deterministic arrival phase: all 2·B captures, on the lanes.
        for item, recordings in zip(prepared, render_arrivals(planned_renders)):
            item.recordings = recordings
            artifacts = item.session.artifacts
            if artifacts is not None:
                artifacts.recording_auth = recordings.auth
                artifacts.recording_vouch = recordings.vouch
        mark = self._account("render", mark)

        detections_all = self._detect_all(prepared)
        mark = self._account("detect", mark)

        for item, detections in zip(prepared, detections_all):
            outcomes[item.index] = exchange(
                item.session.context,
                item.negotiation,
                detections,
                item.session.rng,
                item.session.artifacts,
            )
        self._account("decide", mark)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------

    @staticmethod
    def _detect_all(prepared: Sequence[_PreparedSession]) -> list[DetectionPair]:
        """Step IV for every prepared session, via the shared seam."""
        return detect_batch(
            [
                (item.session.context, item.negotiation, item.recordings)
                for item in prepared
            ]
        )
