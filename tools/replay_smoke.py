"""CI smoke: the record/replay corpus loop is byte-exact and render-free.

Records a fresh mini-profile corpus into a temp directory, then checks
every contract the capture subsystem advertises (``docs/corpus.md``):

1. recording returns cells byte-identical to a plain live run;
2. strict replay reproduces every decision byte-for-byte without
   executing a single render stage (``render_call_counts`` stays zero);
3. ``repro capture --jobs 2`` records the same entries (fingerprints
   and per-trial manifest data) as the library recorder, so pool
   workers record exactly what one process does;
4. the ``repro replay`` CLI verifies the corpus and exits 0.

Exits non-zero on the first violated contract.  Fast (< 10 s): the mini
profile's 4 kHz cells are tiny.  Run from the repo root::

    PYTHONPATH=src python tools/replay_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.corpus import (
    ReplayingSessionRunner,
    build_capture_specs,
    canonical_outcome_json,
    outcome_to_json,
    record_cell_spec,
    CaptureCorpus,
)
from repro.eval.engine import run_cell_spec
from repro.sim.pipeline import render_call_counts, reset_render_call_counts


def canon(cell) -> list[str]:
    return [canonical_outcome_json(outcome_to_json(o)) for o in cell.outcomes]


def check(condition: bool, label: str) -> None:
    if not condition:
        print(f"FAIL: {label}", file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: {label}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "corpus"
        specs = build_capture_specs(
            profile="mini", distances=[0.5, 3.0], trials=3, seed=7
        )

        live = [run_cell_spec(spec) for spec in specs]
        statuses = {o.status.value for cell in live for o in cell.outcomes}
        check(len(statuses) > 1, "mini profile exercises both decision branches")

        corpus = CaptureCorpus(root)
        recorded = [record_cell_spec(spec, corpus) for spec in specs]
        check(
            [canon(c) for c in recorded] == [canon(c) for c in live],
            "recording returns cells byte-identical to live execution",
        )

        reset_render_call_counts()
        runner = ReplayingSessionRunner(corpus)
        replayed = [runner.replay_cell(spec) for spec in specs]
        check(
            [canon(c) for c in replayed] == [canon(c) for c in live],
            "strict replay is byte-identical to live execution",
        )
        check(
            render_call_counts()
            == {"noise_plans": 0, "arrival_captures": 0},
            "replay executed zero render stages",
        )

        pooled_root = Path(tmp) / "pooled"
        status = cli_main(
            "capture --profile mini --distances 0.5 3.0 --trials 3 "
            "--seed 7 --jobs 2".split()
            + ["--corpus", str(pooled_root)]
        )
        pooled = CaptureCorpus(pooled_root, create=False)
        check(
            status == 0
            and pooled.fingerprints() == corpus.fingerprints()
            and all(
                pooled.read_manifest(fp)["trials"]
                == corpus.read_manifest(fp)["trials"]
                for fp in corpus.fingerprints()
            ),
            "`repro capture --jobs 2` records what the library recorder does",
        )

        status = cli_main(["replay", "--corpus", str(root)])
        check(status == 0, "`repro replay` verifies the corpus and exits 0")

    print("replay smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
