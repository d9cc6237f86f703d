"""The CLI's argument surface (`repro.cli.build_parser`).

Counts, seeds, ports, timeouts and respawn settings reject an
out-of-range value at parse time: the run exits with status 2 and a
usage message instead of misbehaving later (negative trial counts, empty
corpora, tracebacks from the seed derivation, σ_d pooling or the serving
tier).  The DSP options that only chose between identical configurations
are gone, and so is the DSP queue bound that the in-flight gate made
unreachable.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.eval.registry import EXPERIMENTS

BAD_VALUES = [
    ["run", "wall", "--quick", "--trials", "-2"],
    ["run", "wall", "--trials", "0"],
    ["roc", "--quick", "--trials", "0"],
    ["capture", "--corpus", "c", "--profile", "mini", "--trials", "0"],
    ["scenario", "run", "office-fig1", "--trials", "0"],
    ["run-all", "--jobs", "0"],
    ["run", "wall", "--seed", "-3"],
    ["capture", "--corpus", "c", "--seed", "-1"],
    ["capture", "--corpus", "c", "--distances", "12"],
    ["capture", "--corpus", "c", "--distances", "0"],
    ["capture", "--corpus", "c", "--distances", "-1"],
    ["capture", "--corpus", "c", "--distances", "nan"],
    ["scenario", "run", "office-fig1", "--seed", "-5"],
    ["serve", "--dsp-timeout-s", "0"],
    ["serve", "--dsp-timeout-s", "-1"],
    ["serve", "--dsp-timeout-s", "nan"],
    ["serve", "--workers", "2", "--max-respawns", "-1"],
    ["serve", "--workers", "2", "--respawn-backoff-s", "-1"],
    ["serve", "--respawn-backoff-s", "inf"],
    ["serve", "--workers", "0"],
    ["serve", "--max-inflight", "0"],
    ["serve", "--port", "70000"],
    ["serve", "--port", "-1"],
    ["roc", "--trials", "1"],
]


@pytest.mark.parametrize("argv", BAD_VALUES, ids="_".join)
def test_out_of_range_numbers_exit_with_usage(argv, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "must be" in err


def test_boundary_values_parse():
    args = build_parser().parse_args(
        [
            "serve",
            "--dsp-timeout-s",
            "0.5",
            "--max-respawns",
            "0",
            "--respawn-backoff-s",
            "0",
            "--port",
            "0",
        ]
    )
    assert (
        args.dsp_timeout_s,
        args.max_respawns,
        args.respawn_backoff_s,
        args.port,
    ) == (0.5, 0, 0.0, 0)
    assert build_parser().parse_args(["serve", "--port", "65535"]).port == 65535
    assert build_parser().parse_args(["run", "wall", "--trials", "1"]).trials == 1
    assert build_parser().parse_args(["roc", "--trials", "2"]).trials == 2
    capture = ["capture", "--corpus", "c", "--distances", "10", "0.5"]
    assert build_parser().parse_args(capture).distances == [10.0, 0.5]


def test_non_numbers_name_their_type(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "wall", "--trials", "two"])
    assert "invalid int value: 'two'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "wall", "--batch", "4"],
        ["run-all", "--dsp-backend", "numpy"],
        ["replay", "--corpus", "c", "--batch", "2"],
        ["serve", "--linger-ms", "5"],
        ["serve", "--queue-limit", "0"],
    ],
    ids="_".join,
)
def test_removed_dsp_options_are_unknown(argv, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["fig1", "table1", "table2"])
def test_sigma_experiments_reject_one_trial(name, capsys):
    """σ_d is a spread: one trial per cell has none, and the pooling used
    to die with a traceback after the whole run."""
    with pytest.raises(SystemExit) as info:
        main(["run", name, "--trials", "1"])
    assert info.value.code == 2
    assert f"must be >= 2 for {name}" in capsys.readouterr().err


def test_other_experiments_run_at_one_trial(capsys):
    pooled = {name for name, entry in EXPERIMENTS.items() if entry.min_trials > 1}
    assert pooled == {"fig1", "table1", "table2"}
    assert main(["run", "wall", "--quick", "--trials", "1", "--jobs", "1"]) == 0
    assert "wall completed" in capsys.readouterr().out
