"""The shared detection seam and the one in-process round runner.

:func:`detect_batch` is Step IV for any number of independent sessions,
one recording per DSP lane: the runner, corpus record/replay and the
streaming service's coalesced passes all route through it.

:class:`BatchedSessionRunner` runs independent sessions stage by stage,
B at a time, and can account each stage's wall clock.
:meth:`repro.sim.session.RangingSession.run` is this runner at B = 1,
so every in-process round — engine trials, examples, the profiler and
the benchmarks — takes this path:

1. :func:`~repro.sim.pipeline.stages.prepare` (``negotiate`` +
   ``schedule`` + ``render_noise``) executes per session, each on its
   own RNG stream — these stages *are* the stream consumers, so their
   per-trial draw order is untouched (see ``docs/pipeline.md``);
2. the render stage's deterministic half renders all 2·B captures,
   one capture job per DSP lane (``render_arrivals``); the noise beds
   are dropped as soon as their captures exist;
3. ``detect`` observes all 2·B recordings, one recording per DSP lane
   (:func:`detect_batch`); each observation computes its coarse pass
   once and then the own and remote fine scans;
4. ``exchange`` executes per session, again on the session RNG, and
   returns the round's :class:`~repro.core.ranging.RangingOutcome`.

Detection is a pure function of the recordings and a recording's scans
read nothing else, so the runner's outcomes are bit-identical at every
B — the equivalence tests assert this against
:func:`repro.sim.pipeline.reference.run_monolithic` as well.  The batch
size changes no kernel call, so the trial engine runs one session at a
time; larger batches serve the benchmark's stage drive.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.ranging import DeviceObservation, RangingOutcome
from repro.dsp.lanes import map_lanes
from repro.sim.pipeline.stages import (
    DetectionPair,
    NegotiationResult,
    PreparedRound,
    RenderedRecordings,
    SessionContext,
    exchange,
    prepare,
    render_arrivals,
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

    This is the shared detection seam: :class:`BatchedSessionRunner`,
    corpus record/replay, and the streaming service's
    :class:`repro.service.BatchingScheduler` (coalesced concurrent
    requests) all route through it.
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


class BatchedSessionRunner:
    """Runs independent sessions through the pipeline, stage by stage.

    Parameters
    ----------
    batch_size:
        Sessions per batch.  ``1`` is :meth:`RangingSession.run
        <repro.sim.session.RangingSession.run>`; outcomes are identical
        for every value.
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
        #: ``prepare`` (:func:`~repro.sim.pipeline.stages.prepare`, the
        #: RNG-bound phase), ``render`` (the arrival phase on the DSP
        #: lanes), ``detect``, and ``decide``, one assignment each per
        #: batch, in that order.  Used by
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

    def run(self, sessions: Iterable["RangingSession"]) -> list[RangingOutcome]:
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

    def _run_batch(
        self, sessions: Sequence["RangingSession"]
    ) -> list[RangingOutcome]:
        # One entry per session, replaced as its round advances:
        # PreparedRound (or a failed negotiation's outcome), then its
        # NegotiationResult, then its RangingOutcome.
        mark = perf_counter()
        rounds: list = [prepare(s.context, s.rng) for s in sessions]
        mark = self._account("prepare", mark)

        live = [i for i, item in enumerate(rounds) if isinstance(item, PreparedRound)]
        recordings = render_arrivals([rounds[i].planned for i in live])
        # The captures exist: drop the noise beds before detection.
        for i in live:
            rounds[i] = rounds[i].negotiation
        mark = self._account("render", mark)

        detections = detect_batch(
            [
                (sessions[i].context, rounds[i], rendered)
                for i, rendered in zip(live, recordings)
            ]
        )
        mark = self._account("detect", mark)

        for i, pair in zip(live, detections):
            session = sessions[i]
            rounds[i] = exchange(session.context, rounds[i], pair, session.rng)
        self._account("decide", mark)
        return rounds
