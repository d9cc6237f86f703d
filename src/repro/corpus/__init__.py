"""Record/replay capture corpus: content-addressed storage of renders.

Render dominates a ranging round while detect/decide re-run in
milliseconds, so persisting the render stage's output turns cross-version
bit-identity and offline detector tuning into replay problems.  Three
layers (see ``docs/corpus.md``):

* **store** — :class:`CaptureCorpus`, an atomic, concurrent-writer-safe
  on-disk store addressed by
  :meth:`~repro.eval.engine.TrialSpec.fingerprint`, failing closed with
  :class:`CorpusIntegrityError` on any corruption
  (:mod:`repro.corpus.store`);
* **codec** — lossless round trips between pipeline values and stored
  bytes (:mod:`repro.corpus.codec`);
* **record/replay** — :func:`record_cell_spec` persists live cells;
  :class:`ReplayingSessionRunner` re-runs only the pipeline tail from
  stored captures, byte-verifying decisions in strict mode
  (:mod:`repro.corpus.record`, :mod:`repro.corpus.replay`).

CLI: ``repro capture`` records a corpus, ``repro replay`` verifies one.
"""

from repro.corpus.codec import (
    canonical_outcome_json,
    decode_recording,
    encode_recording,
    outcome_from_json,
    outcome_to_json,
    spec_from_manifest,
    spec_to_manifest,
)
from repro.corpus.record import (
    build_capture_specs,
    mini_environment,
    mini_protocol_config,
    record_cell_spec,
)
from repro.corpus.replay import (
    ReplayingSessionRunner,
    ReplayMismatchError,
    ReplayReport,
)
from repro.corpus.store import (
    CORPUS_FORMAT,
    CaptureCorpus,
    CorpusError,
    CorpusIntegrityError,
)

__all__ = [
    "CORPUS_FORMAT",
    "CaptureCorpus",
    "CorpusError",
    "CorpusIntegrityError",
    "ReplayMismatchError",
    "ReplayReport",
    "ReplayingSessionRunner",
    "build_capture_specs",
    "canonical_outcome_json",
    "decode_recording",
    "encode_recording",
    "mini_environment",
    "mini_protocol_config",
    "outcome_from_json",
    "outcome_to_json",
    "record_cell_spec",
    "spec_from_manifest",
    "spec_to_manifest",
]
