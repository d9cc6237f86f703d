"""Staged ranging pipeline.

Three modules (see ``docs/pipeline.md`` and ``docs/architecture.md``):

* **stages** — the typed, pure stages of one ACTION round
  (``negotiate`` → ``schedule`` → ``render_noise`` →
  ``render_arrivals`` → ``detect`` → ``exchange``, which returns the
  round's :class:`~repro.core.ranging.RangingOutcome`) and
  :func:`prepare`, the round's RNG-bound prefix that every round starts
  with.  No stage applies τ: :mod:`repro.core.decisions` decides an
  outcome;
* **batch** — :func:`detect_batch`, the detection seam that observes
  each recording on its own DSP lane (``render_arrivals`` is its render
  counterpart; the streaming service's scheduler and the capture corpus
  share both), and :class:`BatchedSessionRunner`, the one in-process
  round runner: it runs sessions stage by stage with optional per-stage
  wall-clock accounting, and
  :meth:`repro.sim.session.RangingSession.run` is it at B = 1;
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
   :func:`run_monolithic` and :class:`BatchedSessionRunner` at *any*
   batch size (or any grouping of sessions into batches) produce
   bit-identical :class:`~repro.core.ranging.RangingOutcome`\\ s.
   Batch composition is a scheduling decision, never a numerical one —
   this is what lets ``repro.service`` coalesce unrelated concurrent
   requests into one DSP pass.  The same holds for the number of DSP lanes
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
    PreparedRound,
    RenderedRecordings,
    SchedulePlan,
    SessionContext,
    SessionTiming,
    detect,
    exchange,
    negotiate,
    prepare,
    radiated_reference_waveform,
    render_arrivals,
    render_call_counts,
    render_noise,
    reset_render_call_counts,
    schedule,
    session_cost,
)

__all__ = [
    "BatchedSessionRunner",
    "DetectionPair",
    "InterferenceProvider",
    "NegotiationResult",
    "PlannedRender",
    "PreparedRound",
    "RenderedRecordings",
    "SchedulePlan",
    "SessionContext",
    "SessionTiming",
    "detect",
    "detect_batch",
    "exchange",
    "negotiate",
    "prepare",
    "radiated_reference_waveform",
    "render_arrivals",
    "render_call_counts",
    "render_noise",
    "reset_render_call_counts",
    "run_monolithic",
    "schedule",
    "session_cost",
]
