"""Staged ranging pipeline.

Three modules (see ``docs/pipeline.md`` and ``docs/architecture.md``):

* **stages** — the five typed, pure stages of one ACTION round
  (``negotiate`` → ``schedule`` → ``render`` → ``detect`` →
  ``exchange``, which returns the round's
  :class:`~repro.core.ranging.RangingOutcome`) plus :func:`run_staged`,
  the serial chain that :class:`repro.sim.session.RangingSession` wraps.
  No stage applies τ: :mod:`repro.core.decisions` decides an outcome;
* **batch** — :func:`detect_batch`, the detection seam that observes
  each recording on its own DSP lane (``render_arrivals`` is its render
  counterpart; the streaming service's scheduler shares both), and
  :class:`BatchedSessionRunner`, which runs sessions stage by stage with
  per-stage wall-clock accounting for the profiler and the benchmarks;
* **reference** — the pre-refactor monolithic loop, kept as the
  executable specification the equivalence tests and benchmarks compare
  against.

Invariants every caller may rely on (and every change must preserve):

1. **RNG ordering** — the stages consume a session's RNG stream in the
   exact order the pre-refactor monolith drew it (signals → init
   transfer → four audio-path latencies → interference → mixer noise and
   channel draws → report transfer).  Stages that span sessions
   (``render_arrivals``, ``detect_batch``) consume **no** RNG at all.
2. **Bitwise batch invariance** — for a fixed per-session RNG stream,
   serial staged execution, :func:`run_monolithic`, and
   :class:`BatchedSessionRunner` at *any* batch size (or any grouping of
   sessions into batches) produce bit-identical
   :class:`~repro.core.ranging.RangingOutcome`\\ s.  Batch composition is
   a scheduling decision, never a numerical one — this is what lets
   ``repro.service`` coalesce unrelated concurrent requests into one DSP
   pass.  The same holds for the number of DSP lanes
   (:mod:`repro.dsp.lanes`) a process runs captures on.
3. **Pure data boundaries** — everything crossing a stage boundary is a
   frozen dataclass (plus numpy arrays treated as immutable), so stages
   can run on different substrates (process-pool workers, the service's
   DSP thread, DSP lanes) without hidden shared state.
"""

from repro.sim.pipeline.batch import BatchedSessionRunner, detect_batch
from repro.sim.pipeline.reference import run_monolithic
from repro.sim.pipeline.stages import (
    DetectionPair,
    InterferenceProvider,
    NegotiationResult,
    PlannedRender,
    RenderedRecordings,
    SchedulePlan,
    SessionArtifacts,
    SessionContext,
    SessionTiming,
    detect,
    exchange,
    negotiate,
    radiated_reference_waveform,
    render,
    render_arrivals,
    render_call_counts,
    render_noise,
    reset_render_call_counts,
    run_staged,
    schedule,
    session_cost,
)

__all__ = [
    "BatchedSessionRunner",
    "DetectionPair",
    "InterferenceProvider",
    "NegotiationResult",
    "PlannedRender",
    "RenderedRecordings",
    "SchedulePlan",
    "SessionArtifacts",
    "SessionContext",
    "SessionTiming",
    "detect",
    "detect_batch",
    "exchange",
    "negotiate",
    "radiated_reference_waveform",
    "render",
    "render_arrivals",
    "render_call_counts",
    "render_noise",
    "reset_render_call_counts",
    "run_monolithic",
    "run_staged",
    "schedule",
    "session_cost",
]
