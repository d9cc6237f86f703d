"""The checked-in golden corpus replays byte-identically, render-free.

``tests/data/golden_corpus`` was recorded once (``repro capture
--profile mini --distances 0.5 3.0 --trials 2 --seed 2017``) and is
replayed by every CI run: any change anywhere in the detect/decide tail
— detector kernels, decision policies, outcome serialization, RNG
consumption — that alters even one byte of one replayed decision fails
here.  Regenerate the corpus (same command) only when such a change is
deliberate.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.corpus import (
    CaptureCorpus,
    ReplayingSessionRunner,
    build_capture_specs,
)
from repro.sim.pipeline import render_call_counts, reset_render_call_counts

GOLDEN = Path(__file__).parent / "data" / "golden_corpus"


def test_golden_corpus_is_present_and_complete():
    corpus = CaptureCorpus(GOLDEN, create=False)
    assert len(corpus) == 2
    for manifest in corpus.manifests().values():
        assert manifest["reconstructible"] is True
        assert manifest["environment"] == "mini_quiet"
        assert manifest["n_trials"] == 2
        assert manifest["seed"] == 2017


def test_golden_corpus_replays_byte_identically_without_rendering():
    runner = ReplayingSessionRunner(str(GOLDEN))
    reset_render_call_counts()
    reports = runner.replay_all()  # strict: raises on any byte diff
    assert render_call_counts() == {"noise_plans": 0, "arrival_captures": 0}
    assert len(reports) == 2
    assert sum(r.replayed_trials for r in reports) == 4
    assert all(not r.mismatches for r in reports)
    # Both decision branches are represented: the near cell ranges, the
    # far cell denies with signal-not-present.
    by_distance = {r.distance_m: r.cell for r in reports}
    assert all(o.ok for o in by_distance[0.5].outcomes)
    assert all(not o.ok for o in by_distance[3.0].outcomes)


def test_golden_corpus_addresses_match_its_specs():
    """The entries still live at the addresses their specs hash to."""
    corpus = CaptureCorpus(GOLDEN, create=False)
    specs = build_capture_specs(
        profile="mini", distances=[0.5, 3.0], trials=2, seed=2017
    )
    assert sorted(s.fingerprint() for s in specs) == corpus.fingerprints()


def test_golden_corpus_cli_replay_exits_clean(capsys):
    from repro.cli import main

    assert main(["replay", "--corpus", str(GOLDEN)]) == 0
    out = capsys.readouterr().out
    assert "render calls: 0 noise, 0 arrivals" in out


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_capture_rerecords_the_golden_corpus(tmp_path, capsys, jobs):
    """The golden command re-records the golden entries at any ``--jobs``.

    Manifests are compared without their host-stamped ``versions``; the
    per-trial data (indices, RNG state, outcome) and the capture arrays
    must match exactly.  Capturing again into the same root replaces
    every entry and still replays clean.
    """
    from repro.cli import main

    root = tmp_path / "corpus"
    argv = (
        "capture --profile mini --distances 0.5 3.0 --trials 2 --seed 2017"
        f" --jobs {jobs}".split()
        + ["--corpus", str(root)]
    )
    assert main(argv) == 0
    golden = CaptureCorpus(GOLDEN, create=False)
    captured = CaptureCorpus(root, create=False)
    assert captured.fingerprints() == golden.fingerprints()
    for fingerprint in golden.fingerprints():
        assert (
            captured.read_manifest(fingerprint)["trials"]
            == golden.read_manifest(fingerprint)["trials"]
        )
        arrays = captured.read_arrays(fingerprint)
        expected = golden.read_arrays(fingerprint)
        assert arrays.keys() == expected.keys()
        assert all(np.array_equal(arrays[k], expected[k]) for k in expected)

    assert main(argv) == 0
    assert main(["replay", "--corpus", str(root)]) == 0
    assert "recorded 2 cells (4 trials)" in capsys.readouterr().out
