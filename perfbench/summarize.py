"""Summarize recorded runs: per workload and metric, median, quartiles, spread.

Usage::

    python3 perfbench/summarize.py [--runs DIR] [--workload NAME] [--against DIR]

Reads the run records ``run.py`` leaves under ``.perfbench/runs``
(untraced runs only — end-to-end figures never come from traced runs),
drops runs marked invalid or incorrect, and prints for each end-to-end
metric the median, the quartiles as ``statistics.quantiles(n=4)`` gives
them, and the quartile distance as a share of the median next to the
metric's bound from ``BENCHMARK.json``.  With ``--against`` it also
compares each median with the median of an earlier set of runs and flags
a change for the worse beyond the bound.  Medians only: never best-of.
Exits 1 when any spread or change exceeds its bound.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

from stats import spread_share

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_runs(runs_dir: str, workload: str | None) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(runs_dir, "*.json"))):
        if os.path.basename(path) == "host.json":
            continue
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("trace") or (workload and record["workload"] != workload):
            continue
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def _usable(records: list[dict]) -> list[dict]:
    return [r for r in records if r["valid"] and r["correct"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", default=os.path.join(ROOT, ".perfbench", "runs"))
    parser.add_argument("--workload", default=None)
    parser.add_argument("--against", default=None, help="runs directory of an earlier set")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    earlier = load_runs(args.against, args.workload) if args.against else {}
    status = 0
    for workload, records in sorted(load_runs(args.runs, args.workload).items()):
        kept = _usable(records)
        before = _usable(earlier.get(workload, []))
        dropped = len(records) - len(kept)
        print(f"{workload}: {len(kept)} runs used, {dropped} invalid or incorrect dropped")
        if len(kept) < 2:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["e2e"][name][0] for r in kept]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = spread_share(values)
            flag = ""
            if spread > bound:
                flag, status = "  OVER BOUND", 1
            elif spread > bound / 3:
                flag = "  over a third of the bound"
            line = (
                f"  {name:20s} median {median:12.5g} {metric['unit']:6s} "
                f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:7.4f} (bound {bound})"
            )
            if before:
                then = statistics.median(r["e2e"][name][0] for r in before)
                change = (median - then) / then
                line += f" vs earlier {then:.5g} ({change:+.4f})"
                worse = change if metric["better"] == "lower" else -change
                if worse > bound:
                    flag, status = flag + "  WORSE THAN EARLIER SET", 1
            print(line + flag)
    return status


if __name__ == "__main__":
    sys.exit(main())
