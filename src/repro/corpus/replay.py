"""Replay: re-run detect/decide from recorded captures, render-free.

:class:`ReplayingSessionRunner` short-circuits the expensive front of the
pipeline from a :class:`~repro.corpus.CaptureCorpus` entry.  Per recorded
trial it:

1. rebuilds the trial's session through the one shared construction path
   (:func:`~repro.eval.engine.build_trial_session` — same world, same
   devices, same link state a live run would have at this point);
2. reconstitutes the negotiation output from the stored candidate-index
   subsets (:func:`~repro.core.signal_construction.signal_from_indices`
   is deterministic, so the rebuilt reference signals are bit-identical)
   and the stored init latency;
3. loads both capture buffers from the payload —
   :func:`~repro.sim.pipeline.prepare` and ``render_arrivals`` never
   run, which keeps :func:`repro.sim.pipeline.render_call_counts`
   untouched;
4. runs the shared detection seam
   (:func:`repro.sim.pipeline.detect_batch` — the very code live rounds
   use) and, after restoring the session RNG to the stored
   post-``prepare`` stream position, the terminal ``exchange`` stage,
   which returns the trial's :class:`~repro.core.ranging.RangingOutcome`.

In **strict** mode (the default) every replayed decision is compared
byte-for-byte against the recorded one via
:func:`~repro.corpus.codec.canonical_outcome_json`; any difference raises
:class:`ReplayMismatchError` — the cross-version regression signal.  In
**tolerant** mode mismatches are counted instead of raised, for replaying
a corpus under a deliberately different detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.action import SignalPair
from repro.core.signal_construction import signal_from_indices
from repro.eval.engine import CellResult, TrialSpec, build_trial_session
from repro.sim.pipeline.batch import detect_batch
from repro.sim.pipeline.stages import (
    NegotiationResult,
    RenderedRecordings,
    exchange,
)

from repro.corpus.codec import (
    canonical_outcome_json,
    decode_recording,
    outcome_from_json,
    outcome_to_json,
    spec_from_manifest,
)
from repro.corpus.store import (
    CaptureCorpus,
    CorpusError,
    CorpusIntegrityError,
)

__all__ = ["ReplayMismatchError", "ReplayReport", "ReplayingSessionRunner"]


class ReplayMismatchError(CorpusError):
    """A strict replay produced a decision differing from the recording."""

    def __init__(
        self, fingerprint: str, trial: int, recorded: str, replayed: str
    ) -> None:
        super().__init__(
            f"trial {trial} replayed differently than recorded\n"
            f"  recorded: {recorded}\n"
            f"  replayed: {replayed}",
            fingerprint=fingerprint,
        )
        self.trial = trial
        self.recorded = recorded
        self.replayed = replayed


@dataclass
class ReplayReport:
    """What replaying one entry produced and verified."""

    fingerprint: str
    environment: str
    distance_m: float
    cell: CellResult
    #: Trials re-run through detect/decide from stored captures.
    replayed_trials: int = 0
    #: Trials restored verbatim (negotiation failed before the render
    #: seam, so there is nothing to re-run).
    restored_trials: int = 0
    #: Tolerant mode only — strict mode raises on the first mismatch.
    mismatches: list[int] = field(default_factory=list)


class ReplayingSessionRunner:
    """Replays corpus entries through the detect/decide pipeline tail.

    Parameters
    ----------
    corpus:
        The store (or its root path) to replay from.
    strict:
        Compare every replayed decision byte-for-byte against the
        recorded one and raise :class:`ReplayMismatchError` on any
        difference.  ``False`` counts mismatches per entry instead.
    """

    def __init__(
        self,
        corpus: CaptureCorpus | str,
        strict: bool = True,
    ) -> None:
        if not isinstance(corpus, CaptureCorpus):
            corpus = CaptureCorpus(corpus, create=False)
        self.corpus = corpus
        self.strict = strict

    # ------------------------------------------------------------------

    def replay_cell(self, spec: TrialSpec) -> CellResult:
        """Replay the entry recorded for ``spec`` (KeyError when absent)."""
        return self.replay_entry(spec.fingerprint(), spec=spec).cell

    def replay_all(self) -> list[ReplayReport]:
        """Replay every reconstructible entry, sorted by fingerprint.

        Entries whose manifest carries no reconstructible spec are
        skipped (replay them individually via :meth:`replay_entry` with
        the original spec object).
        """
        reports = []
        for fingerprint in self.corpus.fingerprints():
            manifest = self.corpus.read_manifest(fingerprint)
            if manifest.get("spec") is None:
                continue
            reports.append(self.replay_entry(fingerprint))
        return reports

    def replay_entry(
        self, fingerprint: str, spec: TrialSpec | None = None
    ) -> ReplayReport:
        """Replay one entry; see the module docstring for the mechanics."""
        manifest = self.corpus.read_manifest(fingerprint)
        if spec is None:
            if manifest.get("spec") is None:
                raise CorpusError(
                    "entry is not reconstructible from its manifest alone "
                    "(room/interference/engine override) — pass the "
                    "original spec object",
                    fingerprint=fingerprint,
                )
            spec = spec_from_manifest(manifest["spec"])
            if spec.fingerprint() != fingerprint:
                raise CorpusIntegrityError(
                    "the manifest's spec no longer hashes to this entry's "
                    "address — fingerprint-scheme drift or manifest "
                    "tampering",
                    fingerprint=fingerprint,
                )
        trials = manifest.get("trials")
        if not isinstance(trials, list) or len(trials) != spec.n_trials:
            raise CorpusIntegrityError(
                f"manifest records {len(trials) if isinstance(trials, list) else 'no'} "
                f"trials for an {spec.n_trials}-trial cell",
                fingerprint=fingerprint,
            )
        numbers = [t.get("trial") if isinstance(t, dict) else None for t in trials]
        if numbers != list(range(spec.n_trials)):
            raise CorpusIntegrityError(
                f"manifest trials are numbered {numbers}, not 0..n-1 in order",
                fingerprint=fingerprint,
            )

        replayable = [t for t in trials if "failed_stage" not in t]
        arrays = (
            self.corpus.read_arrays(fingerprint) if replayable else {}
        )
        for meta in replayable:
            for side in ("auth", "vouch"):
                key = f"t{meta['trial']}_{side}"
                if key not in arrays:
                    raise CorpusIntegrityError(
                        f"payload missing capture {key!r}",
                        fingerprint=fingerprint,
                    )

        report = ReplayReport(
            fingerprint=fingerprint,
            environment=spec.env_name,
            distance_m=spec.distance_m,
            cell=CellResult(
                environment=spec.env_name, distance_m=spec.distance_m
            ),
        )
        for meta in trials:
            if "failed_stage" in meta:
                report.cell.add(outcome_from_json(meta["outcome"]))
                report.restored_trials += 1
                continue
            trial = meta["trial"]
            session = build_trial_session(spec, trial)
            ctx = session.context
            negotiation = NegotiationResult(
                signals=SignalPair(
                    auth=signal_from_indices(meta["auth_indices"], ctx.config),
                    vouch=signal_from_indices(
                        meta["vouch_indices"], ctx.config
                    ),
                ),
                init_latency_s=meta["init_latency_s"],
            )
            recordings = RenderedRecordings(
                auth=decode_recording(arrays[f"t{trial}_auth"]),
                vouch=decode_recording(arrays[f"t{trial}_vouch"]),
            )
            (pair,) = detect_batch([(ctx, negotiation, recordings)])
            # Resume the session stream exactly where the live run's
            # prepare left it, so the exchange stage's report-transfer
            # draw matches bit for bit.
            session.rng.bit_generator.state = meta["rng_state"]
            outcome = exchange(ctx, negotiation, pair, session.rng)
            report.cell.add(outcome)
            report.replayed_trials += 1
            replayed = canonical_outcome_json(outcome_to_json(outcome))
            recorded = canonical_outcome_json(meta["outcome"])
            if replayed != recorded:
                if self.strict:
                    raise ReplayMismatchError(
                        fingerprint, trial, recorded, replayed
                    )
                report.mismatches.append(trial)
        return report
