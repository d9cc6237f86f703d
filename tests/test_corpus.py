"""Record/replay capture corpus: store, codec, replay, CLI.

The contract under test (``docs/corpus.md``): recording a cell returns
results byte-identical to live execution, replaying it re-runs only
detect/decide (zero render-stage calls) and reproduces every decision
byte-for-byte, and any corruption of the on-disk entry fails closed with
a structured :class:`CorpusIntegrityError` rather than being mistaken
for a cache miss.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.corpus import (
    CaptureCorpus,
    CorpusError,
    CorpusIntegrityError,
    ReplayMismatchError,
    ReplayingSessionRunner,
    build_capture_specs,
    canonical_outcome_json,
    decode_recording,
    encode_recording,
    outcome_from_json,
    outcome_to_json,
    record_cell_spec,
    spec_from_manifest,
    spec_to_manifest,
)
from repro.eval.engine import TrialSpec, run_cell_spec
from repro.sim.geometry import Room
from repro.sim.pipeline import render_call_counts, reset_render_call_counts


@pytest.fixture(scope="module")
def mini_specs():
    return build_capture_specs(
        profile="mini", distances=[0.5, 3.0], trials=3, seed=7
    )


@pytest.fixture(scope="module")
def live_cells(mini_specs):
    return [run_cell_spec(spec) for spec in mini_specs]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory, mini_specs):
    corpus = CaptureCorpus(tmp_path_factory.mktemp("corpus"))
    cells = [record_cell_spec(spec, corpus) for spec in mini_specs]
    return corpus, cells


def canon(cell):
    return [canonical_outcome_json(outcome_to_json(o)) for o in cell.outcomes]


# ----------------------------------------------------------------------
# Record == live, replay == live
# ----------------------------------------------------------------------


def test_recording_matches_live_execution(recorded, live_cells):
    _, cells = recorded
    assert [canon(c) for c in cells] == [canon(c) for c in live_cells]


def test_strict_replay_is_byte_identical_and_render_free(
    recorded, mini_specs, live_cells
):
    corpus, _ = recorded
    runner = ReplayingSessionRunner(corpus)
    reset_render_call_counts()
    replayed = [runner.replay_cell(spec) for spec in mini_specs]
    assert render_call_counts() == {"noise_plans": 0, "arrival_captures": 0}
    assert [canon(c) for c in replayed] == [canon(c) for c in live_cells]


def test_replay_all_reconstructs_specs_from_manifests(
    recorded, mini_specs, live_cells
):
    corpus, _ = recorded
    reports = ReplayingSessionRunner(corpus).replay_all()
    assert sorted(r.fingerprint for r in reports) == sorted(
        spec.fingerprint() for spec in mini_specs
    )
    by_fingerprint = {r.fingerprint: r for r in reports}
    for spec, live in zip(mini_specs, live_cells):
        report = by_fingerprint[spec.fingerprint()]
        assert canon(report.cell) == canon(live)
        assert report.replayed_trials == spec.n_trials
        assert report.mismatches == []


def test_replay_missing_entry_is_a_keyerror(recorded, mini_specs):
    corpus, _ = recorded
    absent = TrialSpec(
        environment="office", distance_m=9.0, n_trials=1, seed=99
    )
    with pytest.raises(KeyError):
        ReplayingSessionRunner(corpus).replay_cell(absent)


def test_opening_a_missing_corpus_read_only_fails(tmp_path):
    with pytest.raises(CorpusError):
        CaptureCorpus(tmp_path / "nowhere", create=False)
    with pytest.raises(CorpusError):
        ReplayingSessionRunner(str(tmp_path / "nowhere"))


# ----------------------------------------------------------------------
# Tampering and corruption fail closed
# ----------------------------------------------------------------------


def _fresh_corpus(tmp_path, trials=2):
    spec = build_capture_specs(
        profile="mini", distances=[0.5], trials=trials, seed=11
    )[0]
    corpus = CaptureCorpus(tmp_path / "c")
    record_cell_spec(spec, corpus)
    return corpus, spec


def test_tampered_outcome_raises_replay_mismatch(tmp_path):
    corpus, spec = _fresh_corpus(tmp_path)
    fingerprint = spec.fingerprint()
    path = corpus._manifest_path(fingerprint)
    manifest = json.loads(path.read_text())
    manifest["trials"][0]["outcome"]["distance_m"] = 123.456
    path.write_text(json.dumps(manifest))
    with pytest.raises(ReplayMismatchError) as excinfo:
        ReplayingSessionRunner(corpus).replay_cell(spec)
    assert excinfo.value.fingerprint == fingerprint
    assert excinfo.value.trial == 0
    assert "123.456" in excinfo.value.recorded


def test_tolerant_replay_counts_mismatches_instead(tmp_path):
    corpus, spec = _fresh_corpus(tmp_path)
    path = corpus._manifest_path(spec.fingerprint())
    manifest = json.loads(path.read_text())
    manifest["trials"][0]["outcome"]["distance_m"] = 123.456
    path.write_text(json.dumps(manifest))
    runner = ReplayingSessionRunner(corpus, strict=False)
    report = runner.replay_entry(spec.fingerprint(), spec=spec)
    assert report.mismatches == [0]
    assert report.replayed_trials == spec.n_trials


def test_truncated_payload_fails_closed(tmp_path):
    corpus, spec = _fresh_corpus(tmp_path)
    payload = corpus._payload_path(spec.fingerprint())
    payload.write_bytes(payload.read_bytes()[:-40])
    with pytest.raises(CorpusIntegrityError, match="SHA-256 mismatch"):
        ReplayingSessionRunner(corpus).replay_cell(spec)


def test_bitflipped_payload_fails_closed(tmp_path):
    corpus, spec = _fresh_corpus(tmp_path)
    payload = corpus._payload_path(spec.fingerprint())
    raw = bytearray(payload.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    payload.write_bytes(bytes(raw))
    with pytest.raises(CorpusIntegrityError):
        corpus.read_arrays(spec.fingerprint())


def test_unverified_read_still_rejects_non_npz_bytes(tmp_path):
    corpus, spec = _fresh_corpus(tmp_path)
    corpus._payload_path(spec.fingerprint()).write_bytes(b"not an archive")
    with pytest.raises(CorpusIntegrityError, match="npz"):
        corpus.read_arrays(spec.fingerprint(), verify=False)


def test_malformed_manifest_fails_closed(tmp_path):
    corpus, spec = _fresh_corpus(tmp_path)
    fingerprint = spec.fingerprint()
    path = corpus._manifest_path(fingerprint)
    for breakage in (b"{ truncated", b"[1, 2, 3]\n"):
        path.write_bytes(breakage)
        with pytest.raises(CorpusIntegrityError):
            corpus.read_manifest(fingerprint)


def test_interrupted_write_is_corruption_not_a_miss(tmp_path):
    corpus, spec = _fresh_corpus(tmp_path)
    fingerprint = spec.fingerprint()
    # Payload without manifest: the commit point never landed.
    corpus._manifest_path(fingerprint).unlink()
    assert fingerprint not in corpus
    with pytest.raises(CorpusIntegrityError, match="interrupted"):
        corpus.read_manifest(fingerprint)
    # Manifest without payload: the opposite half is gone.
    corpus2, spec2 = _fresh_corpus(tmp_path / "second")
    corpus2._payload_path(spec2.fingerprint()).unlink()
    with pytest.raises(CorpusIntegrityError, match="payload missing"):
        corpus2.read_arrays(spec2.fingerprint())


def test_error_carries_fingerprint_and_path(tmp_path):
    corpus, spec = _fresh_corpus(tmp_path)
    fingerprint = spec.fingerprint()
    payload = corpus._payload_path(fingerprint)
    payload.write_bytes(b"junk")
    with pytest.raises(CorpusIntegrityError) as excinfo:
        corpus.read_arrays(fingerprint)
    assert excinfo.value.fingerprint == fingerprint
    assert excinfo.value.path == payload


def test_manifest_fingerprint_drift_is_detected(tmp_path):
    """An entry renamed to another address is tampering, not data."""
    corpus, spec = _fresh_corpus(tmp_path)
    fingerprint = spec.fingerprint()
    fake = "0" * 32
    (corpus._manifest_path(fingerprint)).rename(corpus._manifest_path(fake))
    (corpus._payload_path(fingerprint)).rename(corpus._payload_path(fake))
    with pytest.raises(CorpusIntegrityError, match="claims fingerprint"):
        corpus.read_manifest(fake)


def test_spec_drift_against_entry_address_is_detected(tmp_path):
    corpus, spec = _fresh_corpus(tmp_path)
    fingerprint = spec.fingerprint()
    path = corpus._manifest_path(fingerprint)
    manifest = json.loads(path.read_text())
    manifest["spec"]["seed"] = 999  # no longer hashes to this address
    path.write_text(json.dumps(manifest))
    with pytest.raises(CorpusIntegrityError, match="no longer hashes"):
        ReplayingSessionRunner(corpus).replay_entry(fingerprint)


def test_wrong_trial_count_fails_closed(tmp_path):
    corpus, spec = _fresh_corpus(tmp_path)
    fingerprint = spec.fingerprint()
    path = corpus._manifest_path(fingerprint)
    manifest = json.loads(path.read_text())
    manifest["trials"] = manifest["trials"][:-1]
    path.write_text(json.dumps(manifest))
    with pytest.raises(CorpusIntegrityError, match="trial"):
        ReplayingSessionRunner(corpus).replay_entry(
            fingerprint, spec=spec
        )


def test_misnumbered_trials_fail_closed(tmp_path):
    # Replay appends outcomes in manifest order, so a manifest whose
    # trials are not 0..n-1 in order must not replay into a wrong cell.
    corpus, spec = _fresh_corpus(tmp_path)
    fingerprint = spec.fingerprint()
    path = corpus._manifest_path(fingerprint)
    manifest = json.loads(path.read_text())
    manifest["trials"].reverse()
    path.write_text(json.dumps(manifest))
    with pytest.raises(CorpusIntegrityError, match="numbered"):
        ReplayingSessionRunner(corpus).replay_entry(
            fingerprint, spec=spec
        )


# ----------------------------------------------------------------------
# Concurrent writers
# ----------------------------------------------------------------------


def test_concurrent_writers_of_one_entry_stay_consistent(tmp_path):
    spec = build_capture_specs(
        profile="mini", distances=[0.5], trials=2, seed=11
    )[0]
    corpus = CaptureCorpus(tmp_path / "c")
    errors: list[Exception] = []

    def writer():
        try:
            record_cell_spec(spec, CaptureCorpus(tmp_path / "c"))
        except Exception as error:  # pragma: no cover - the failure path
            errors.append(error)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(corpus) == 1
    # Whatever interleaving happened, the surviving entry verifies and
    # replays strictly, and no temp files leaked.
    ReplayingSessionRunner(corpus).replay_cell(spec)
    leftovers = [
        p for p in corpus.entries_dir.iterdir() if p.name.startswith(".")
    ]
    assert leftovers == []


# ----------------------------------------------------------------------
# Non-reconstructible entries
# ----------------------------------------------------------------------


def test_room_override_records_but_needs_the_spec_to_replay(tmp_path):
    spec = build_capture_specs(
        profile="mini", distances=[0.5], trials=2, seed=11
    )[0]
    spec = TrialSpec(
        environment=spec.environment,
        distance_m=spec.distance_m,
        n_trials=spec.n_trials,
        seed=spec.seed,
        config=spec.config,
        room=Room.with_dividing_wall(0.25),
    )
    assert spec_to_manifest(spec) is None
    corpus = CaptureCorpus(tmp_path / "c")
    live = record_cell_spec(spec, corpus)
    manifest = corpus.read_manifest(spec.fingerprint())
    assert manifest["reconstructible"] is False

    runner = ReplayingSessionRunner(corpus)
    assert runner.replay_all() == []  # skipped: not reconstructible
    with pytest.raises(CorpusError, match="not reconstructible"):
        runner.replay_entry(spec.fingerprint())
    report = runner.replay_entry(spec.fingerprint(), spec=spec)
    assert canon(report.cell) == canon(live)


def test_spec_manifest_round_trip(mini_specs):
    for spec in mini_specs:
        manifest = spec_to_manifest(spec)
        assert manifest is not None
        rebuilt = spec_from_manifest(manifest)
        assert rebuilt.fingerprint() == spec.fingerprint()
    preset = TrialSpec(
        environment="office", distance_m=1.0, n_trials=2, seed=0
    )
    assert (
        spec_from_manifest(spec_to_manifest(preset)).fingerprint()
        == preset.fingerprint()
    )


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------


def test_outcome_json_round_trip(live_cells):
    for cell in live_cells:
        for outcome in cell.outcomes:
            restored = outcome_from_json(outcome_to_json(outcome))
            assert canonical_outcome_json(
                outcome_to_json(restored)
            ) == canonical_outcome_json(outcome_to_json(outcome))


def test_recording_codec_is_lossless_on_the_pcm16_grid():
    rng = np.random.default_rng(3)
    on_grid = np.round(rng.normal(0, 500, 256)).clip(-32768, 32767)
    encoded = encode_recording(on_grid)
    assert encoded.dtype == np.int16
    assert np.array_equal(decode_recording(encoded), on_grid)
    off_grid = rng.normal(0, 1, 64)
    assert np.array_equal(
        decode_recording(encode_recording(off_grid)), off_grid
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_capture_then_replay_round_trip(tmp_path, capsys):
    from repro.cli import main

    root = str(tmp_path / "corpus")
    assert (
        main(
            [
                "capture",
                "--corpus",
                root,
                "--profile",
                "mini",
                "--distances",
                "0.5",
                "--trials",
                "2",
                "--seed",
                "11",
            ]
        )
        == 0
    )
    assert main(["replay", "--corpus", root]) == 0
    out = capsys.readouterr().out
    assert "recorded 1 cells" in out
    assert "render calls: 0 noise, 0 arrivals" in out

    assert main(["replay", "--corpus", root, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["render_calls"] == {
        "noise_plans": 0,
        "arrival_captures": 0,
    }
    assert [e["mismatches"] for e in payload["entries"]] == [[]]


def test_cli_replay_threshold_fanout(tmp_path, capsys):
    from repro.cli import main

    root = str(tmp_path / "corpus")
    main(
        [
            "capture",
            "--corpus",
            root,
            "--profile",
            "mini",
            "--distances",
            "0.5",
            "3.0",
            "--trials",
            "2",
            "--seed",
            "11",
        ]
    )
    capsys.readouterr()
    assert (
        main(["replay", "--corpus", root, "--thresholds", "0.1", "2.0"])
        == 0
    )
    out = capsys.readouterr().out
    assert "tau= 0.10" in out and "tau= 2.00" in out


def test_cli_tolerant_replay_reports_mismatches(tmp_path, capsys):
    from repro.cli import main

    corpus, spec = _fresh_corpus(tmp_path)
    path = corpus._manifest_path(spec.fingerprint())
    manifest = json.loads(path.read_text())
    manifest["trials"][0]["outcome"]["distance_m"] = 123.456
    path.write_text(json.dumps(manifest))
    # Strict mode propagates the mismatch as an exception; tolerant mode
    # counts it, reports it, and exits 1.
    with pytest.raises(ReplayMismatchError):
        main(["replay", "--corpus", str(corpus.root)])
    capsys.readouterr()
    status = main(["replay", "--corpus", str(corpus.root), "--tolerant"])
    assert status == 1
    assert "MISMATCHED" in capsys.readouterr().out
