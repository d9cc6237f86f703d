"""The CLI's argument surface (`repro.cli.build_parser`).

Counts, seeds, timeouts and respawn settings reject an out-of-range
value at parse time: the run exits with status 2 and a usage message
instead of misbehaving later (negative trial counts, empty corpora,
tracebacks from the seed derivation or the serving tier).  The DSP options that only chose between identical
configurations are gone.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser

BAD_VALUES = [
    ["run", "wall", "--quick", "--trials", "-2"],
    ["run", "wall", "--trials", "0"],
    ["roc", "--quick", "--trials", "0"],
    ["capture", "--corpus", "c", "--profile", "mini", "--trials", "0"],
    ["scenario", "run", "office-fig1", "--trials", "0"],
    ["run-all", "--jobs", "0"],
    ["run", "wall", "--seed", "-3"],
    ["capture", "--corpus", "c", "--seed", "-1"],
    ["scenario", "run", "office-fig1", "--seed", "-5"],
    ["serve", "--dsp-timeout-s", "0"],
    ["serve", "--dsp-timeout-s", "-1"],
    ["serve", "--dsp-timeout-s", "nan"],
    ["serve", "--workers", "2", "--max-respawns", "-1"],
    ["serve", "--workers", "2", "--respawn-backoff-s", "-1"],
    ["serve", "--respawn-backoff-s", "inf"],
    ["serve", "--workers", "0"],
    ["serve", "--queue-limit", "0"],
    ["serve", "--max-inflight", "0"],
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
        ]
    )
    assert (args.dsp_timeout_s, args.max_respawns, args.respawn_backoff_s) == (
        0.5,
        0,
        0.0,
    )
    assert build_parser().parse_args(["run", "wall", "--trials", "1"]).trials == 1


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
    ],
    ids="_".join,
)
def test_removed_dsp_options_are_unknown(argv, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
