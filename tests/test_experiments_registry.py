"""Tests for the experiment registry, runners (quick mode), and the CLI."""

import importlib

import pytest

from repro.cli import build_parser, main
from repro.eval.registry import list_experiments, run_experiment


def test_registry_covers_every_paper_artifact():
    artifacts = {entry.paper_artifact for entry in list_experiments()}
    assert "Figure 1(a-d)" in artifacts
    assert "Figure 2(a)" in artifacts
    assert "Figure 2(b)" in artifacts
    assert "Table I" in artifacts
    assert "Table II" in artifacts
    assert any("VI-B" in a for a in artifacts)
    assert any("VI-D" in a for a in artifacts)
    assert any("VI-E" in a for a in artifacts)


def test_registry_unknown_experiment():
    with pytest.raises(KeyError):
        run_experiment("nonsense")


def test_wall_experiment_quick():
    report = run_experiment("wall", trials=3, quick=True)
    label_open = "open space"
    label_wall = "interior wall between devices"
    assert report.data[f"grants:{label_open}"] == report.data[f"trials:{label_open}"]
    assert report.data[f"grants:{label_wall}"] == 0
    assert "wall" in report.to_text()


def test_security_experiment_quick():
    report = run_experiment("security", trials=4, quick=True)
    for attack in ("zero-effort", "guessing-replay", "all-frequency-spoof"):
        denied, trials = report.data[f"denied:{attack}"]
        assert denied == trials, f"{attack} succeeded in {trials - denied} trials"
    assert report.data["analytic:exact"] < 1e-15


def test_efficiency_experiment_quick():
    report = run_experiment("efficiency", trials=4, quick=True)
    assert 2.0 < report.data["mean_elapsed_s"] < 5.0
    assert 0.2 < report.data["battery_percent_per_100"] < 1.5


def test_range_limit_experiment_quick():
    report = run_experiment("range_limit", trials=3, quick=True)
    assert report.data["not_present_rate:3.0"] >= 0.5
    assert report.data["not_present_rate:1.5"] <= 0.5
    assert report.data["d_s"] is not None
    assert 2.0 <= report.data["d_s"] <= 3.0


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out and "table2" in out


def test_cli_run_wall(capsys):
    assert main(["run", "wall", "--quick", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "wall study" in out


def test_cli_parser_rejects_unknown():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "bogus"])


def test_entries_have_descriptions():
    for entry in list_experiments():
        assert entry.description
        assert entry.default_trials > 0
        # Entries name their runner's module; it must define ``run``.
        assert callable(importlib.import_module(entry.module).run)
