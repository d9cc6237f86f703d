"""Recording: run cells live and persist their rendered captures.

:func:`record_cell_spec` is :func:`~repro.eval.engine.run_cell_spec` with
capture hooks: it runs the trials one session at a time through the
stage calls :class:`~repro.sim.pipeline.BatchedSessionRunner` makes —
:func:`~repro.sim.pipeline.prepare`, ``render_arrivals`` and
``detect_batch`` over the session's two captures, ``exchange`` — so the
:class:`~repro.eval.engine.CellResult` it returns is bit-identical to a
live run, and what it writes to the corpus is the ground truth replay is
later compared against.

Per surviving trial the entry stores everything the replay path needs to
re-enter the pipeline *after* the render stage:

* the negotiated candidate-index subsets (the reference signals rebuild
  deterministically from indices via
  :func:`~repro.core.signal_construction.signal_from_indices`) and the
  Bluetooth init latency;
* the session RNG state snapshotted right after ``prepare`` — the
  stream position the ``exchange`` stage's report-transfer draw resumes
  from, which is what makes a replayed decision bit-identical;
* both rendered capture buffers (int16-packed, see
  :mod:`repro.corpus.codec`);
* the recorded outcome JSON, strict replay's comparison target.

Trials whose Bluetooth negotiation failed store only their terminal
outcome — there is nothing after the render seam to re-run for them.

The module also owns the **mini profile**: a fully validated
:class:`~repro.core.config.ProtocolConfig` / environment pair quantized
down to a 4 kHz sample rate, making each capture 6 400 samples instead of
~70 000 — small enough that a multi-cell golden corpus checked into git
stays in the tens of kilobytes.
"""

from __future__ import annotations

import copy
import platform
import sys

import numpy as np
import scipy

import repro
from repro.acoustics.environment import Environment, ReverbProfile
from repro.acoustics.noise import NoiseModel
from repro.core.config import ProtocolConfig
from repro.core.ranging import RangingOutcome
from repro.dsp.backend import get_backend
from repro.eval.engine import CellResult, TrialSpec, build_trial_session
from repro.sim.pipeline.batch import detect_batch
from repro.sim.pipeline.stages import exchange, prepare, render_arrivals

from repro.corpus.codec import (
    encode_recording,
    outcome_to_json,
    spec_to_manifest,
)
from repro.corpus.store import CaptureCorpus

__all__ = [
    "build_capture_specs",
    "mini_environment",
    "mini_protocol_config",
    "record_cell_spec",
]


def mini_protocol_config() -> ProtocolConfig:
    """A quantized protocol config for small checked-in corpora.

    Every :class:`~repro.core.config.ProtocolConfig` validation constraint
    holds (power-of-two signal, band below the sample rate, non-overlapping
    ±θ aggregation windows, fine pass covering the coarse grid); only the
    scale changed: 4 kHz sampling shrinks a 1.6 s capture to 6 400 samples,
    and the parameters are tuned so near cells still range accurately
    (≈ 0.3 m error at 0.5 m) while far cells deny with ⊥ — the golden
    corpus exercises both decision branches.
    """
    return ProtocolConfig(
        sample_rate=4_000.0,
        band_low=1_200.0,
        band_high=1_900.0,
        n_candidates=5,
        signal_length=512,
        theta=1,
        coarse_step=100,
        fine_step=2,
        fine_radius=120,
        min_tones=1,
        max_tones=4,
    )


def mini_environment() -> Environment:
    """The quiet scene paired with :func:`mini_protocol_config`.

    The preset environments model noise shaped below 2–4.5 kHz cutoffs,
    which is unrealizable at a 4 kHz sample rate (the Butterworth design
    needs the cutoff under Nyquist), so the mini profile carries its own
    all-scalar — and therefore manifest-serializable — environment.
    """
    return Environment(
        name="mini_quiet",
        noise=NoiseModel(
            low_freq_std=10.0,
            low_freq_cutoff_hz=800.0,
            broadband_std=2.0,
            filter_order=2,
        ),
        reverb=ReverbProfile(
            n_reflections=0,
            max_spread_samples=2,
            reflection_strength=0.0,
            decay=0.5,
            group_delay_samples=2,
            ripple_db=0.3,
        ),
        description="quantized quiet scene for the golden replay corpus",
    )


def build_capture_specs(
    *,
    profile: str = "paper",
    environments: list[str] | None = None,
    distances: list[float] | None = None,
    trials: int = 4,
    seed: int = 0,
) -> list[TrialSpec]:
    """The cell grid a ``repro capture`` invocation records.

    ``profile="paper"`` crosses the named preset environments with the
    distances at the paper-scale default config; ``profile="mini"`` uses
    the quantized config/environment pair (the environment list is
    ignored there — the presets are unrealizable at 4 kHz).
    """
    if profile not in ("paper", "mini"):
        raise ValueError(f"profile must be 'paper' or 'mini', got {profile!r}")
    distances = [0.5, 1.0, 2.0] if distances is None else list(distances)
    if profile == "mini":
        env_list: list = [mini_environment()]
        config = mini_protocol_config()
    else:
        env_list = list(environments or ["office"])
        config = None
    return [
        TrialSpec(
            environment=environment,
            distance_m=distance,
            n_trials=trials,
            seed=seed,
            config=config,
            key=f"capture:{index}",
        )
        for index, (environment, distance) in enumerate(
            (e, d) for e in env_list for d in distances
        )
    ]


def _versions() -> dict:
    """Library/interpreter provenance recorded with every entry."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "platform": sys.platform,
    }


def record_cell_spec(spec: TrialSpec, corpus: CaptureCorpus) -> CellResult:
    """Execute one cell live, persist its captures, return its result.

    One trial at a time, through the stage calls of
    :class:`~repro.sim.pipeline.BatchedSessionRunner`, so the returned
    cell is bit-identical to :func:`~repro.eval.engine.run_cell_spec`.
    """
    cell = CellResult(environment=spec.env_name, distance_m=spec.distance_m)
    trial_meta: list[dict] = []
    arrays: dict[str, np.ndarray] = {}

    for trial in range(spec.n_trials):
        session = build_trial_session(spec, trial)
        ctx, rng = session.context, session.rng
        prepared = prepare(ctx, rng)
        if isinstance(prepared, RangingOutcome):
            cell.add(prepared)
            trial_meta.append(
                {
                    "trial": trial,
                    "failed_stage": "negotiate",
                    "outcome": outcome_to_json(prepared),
                }
            )
            continue
        # Snapshot the stream position the exchange stage resumes from;
        # deep-copied because the generator mutates in place.
        rng_state = copy.deepcopy(rng.bit_generator.state)
        negotiation = prepared.negotiation
        (recordings,) = render_arrivals([prepared.planned])
        (pair,) = detect_batch([(ctx, negotiation, recordings)])
        outcome = exchange(ctx, negotiation, pair, rng)
        cell.add(outcome)
        signals = negotiation.signals
        arrays[f"t{trial}_auth"] = encode_recording(recordings.auth)
        arrays[f"t{trial}_vouch"] = encode_recording(recordings.vouch)
        trial_meta.append(
            {
                "trial": trial,
                "init_latency_s": negotiation.init_latency_s,
                "auth_indices": [
                    int(i) for i in signals.auth.candidate_indices
                ],
                "vouch_indices": [
                    int(i) for i in signals.vouch.candidate_indices
                ],
                "rng_state": rng_state,
                "outcome": outcome_to_json(outcome),
            }
        )

    spec_manifest = spec_to_manifest(spec)
    manifest = {
        "kind": "cell",
        "environment": spec.env_name,
        "distance_m": spec.distance_m,
        "n_trials": spec.n_trials,
        "seed": spec.seed,
        "reconstructible": spec_manifest is not None,
        "spec": spec_manifest,
        "spec_repr": repr(spec),
        "backend": get_backend().name,
        "versions": _versions(),
        "trials": trial_meta,
    }
    corpus.write_entry(spec.fingerprint(), manifest, arrays)
    return cell
