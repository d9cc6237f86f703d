"""Regenerates Table II: false acceptance rates per scenario and threshold."""

from benchmarks.conftest import run_and_print
from repro.eval.experiments.table2_far import PAPER_TABLE2


def test_table2_far(benchmark, quick):
    report = run_and_print(benchmark, "table2", quick)
    for scenario, paper_row in PAPER_TABLE2.items():
        model_row = report.data[f"model_paper_sigma:{scenario}"]
        # The constant-σ model matches the printed FARs within rounding
        # (the paper's restaurant row is non-monotone — see DESIGN.md §6).
        for got, want in zip(model_row, paper_row):
            assert abs(got - want) < 0.15, (scenario, got, want)
        # Headline claim: every measured FAR stays below 1 %.
        measured = report.data[f"measured:{scenario}"]
        assert all(f < 1.0 for f in measured)
