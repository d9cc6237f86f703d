"""PIANO reproduction benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper|serve-light|serve-hot \\
        --seed N --seconds S --trace 0|1

* ``paper`` — every registered experiment (``run-all --quick``) in a
  fresh process on one ``TrialEngine(jobs=2)`` with a cold cache; see
  ``paper.py``.
* ``serve-light`` / ``serve-hot`` — ``python -m repro serve`` over TCP:
  one client on one server process, and four clients on a 2-worker
  sharded tier; see ``serve.py``.

The workload seed is this program's argument; the program under test
only sees the inputs generated from it.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``; end-to-end figures come only from untraced runs.  Stderr
shows the same metrics with unit and sample count; a traced run adds the
per-layer metrics this workload cannot measure (reported as 0) and a
layer ledger, and writes its spans (one JSON line each: id, name, start,
end, parent, request) under ``.perfbench/runs/``.  Every run also leaves
a record there, with its run-validity readings; ``summarize.py`` turns
the untraced records into medians and spreads.

Exit status: 0 with a result; 1 when an output check failed (the result
is still printed, ``correct`` false); 2 when the program's sources are
missing; 3 when a percentile has fewer than 10 samples beyond it; 4 when
the run is invalid — its load generator fell behind, or its DSP backend
or CPU count differs from the first run in this checkout.  An invalid
run prints no result, so its figures cannot be averaged in with others.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("paper", "serve-light", "serve-hot")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _resolve(result) -> None:
    """Turn queued percentiles into values (raises ThinTailError)."""
    from stats import Measured, percentile

    for section, name, values, fraction in result.percentiles:
        target = result.e2e if section == "e2e" else result.layer
        target[name] = percentile(values, fraction)
    result.percentiles = []
    layer = result.layer
    if "_tcp_p50_ms" in layer and "server.inproc_p50_ms" in layer:
        tcp, inproc = layer["_tcp_p50_ms"], layer["server.inproc_p50_ms"]
        layer["transport.p50_ms"] = Measured(tcp.value - inproc.value, min(tcp.n, inproc.n))


def _ledger(result, rounds_per_request: int) -> list[tuple[str, float, str]]:
    """Ledger rows, lowest layer first: kernel → stage → round → request.

    Each row is the time spent at that layer including everything beneath
    it; a row's excess over the row before is the layer's own cost, its
    overhead over the layer beneath.
    """
    layer = result.layer
    if "_kernel_ms" not in layer:
        return []
    stages = sum(
        layer[f"pipeline.{s}_ms_per_round"].value
        for s in ("prepare", "render", "detect", "decide")
    )
    rows = [
        ("kernel (all DSP kernels)", layer["_kernel_ms"].value, "ms/round"),
        ("stage (prepare+render+detect+decide)", stages, "ms/round"),
        ("round (stage drive)", layer["_round_ms"].value, "ms/round"),
    ]
    if result.workload == "paper":
        rows.append(("engine pass, jobs=2 (wall per trial)", layer["_engine_ms_per_round"].value, "ms/round"))
        return rows
    scale = rounds_per_request
    rows = [(name, value * scale, "ms/request") for name, value, _ in rows]
    rows.append(("in-process request (AuthService p50)", layer["server.inproc_p50_ms"].value, "ms/request"))
    transport = "sharded TCP request (p50)" if result.workload == "serve-hot" else "TCP request (p50)"
    rows.append((transport, layer["_tcp_p50_ms"].value, "ms/request"))
    return rows


def _print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"{title}:", file=sys.stderr)
    for name, measured in metrics.items():
        if name.startswith("_"):
            continue
        print(
            f"  {name:34s} {measured.value:14.6g} {units.get(name, ''):6s} n={measured.n}",
            file=sys.stderr,
        )


def _check_host(result, record_dir: str) -> None:
    """Mark the run invalid if its backend or CPU count differs from earlier runs."""
    from host import cpu_count

    path = os.path.join(record_dir, "host.json")
    mine = {"backend": result.backend, "nproc": cpu_count()}
    result.validity.update(mine)
    if len(result.backends) > 1:
        result.invalid.append(f"DSP backend changed within the run: {sorted(result.backends)}")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            first = json.load(handle)
        for key, value in mine.items():
            if first.get(key) != value:
                result.invalid.append(f"{key} {value!r} differs from earlier runs ({first.get(key)!r})")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(mine, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            "perfbench: the program's sources (src/repro) are not in this checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from host import steal_ticks
    from stats import Measured, ThinTailError

    spec = _load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out_dir = os.path.join(OUT, "runs")
    os.makedirs(out_dir, exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"

    steal0 = steal_ticks()
    if args.workload == "paper":
        from paper import run_paper

        result = run_paper(ROOT, args.seed, seconds, bool(args.trace), OUT)
        rounds_per_request = 1
    else:
        from repro.dsp.backend import get_backend
        from serve import PROFILES, run_serve

        profile = PROFILES[args.workload]
        result = run_serve(ROOT, profile, args.seed, seconds, bool(args.trace), OUT)
        # The server resolves its backend with the same per-host probe.
        result.backend = get_backend().name
        result.backends = {result.backend}
        rounds_per_request = profile.rounds
    steal1 = steal_ticks()
    ticks = steal1[1] - steal0[1]
    steal_share = (steal1[0] - steal0[0]) / ticks if ticks else 0.0
    result.validity["steal_share"] = steal_share
    if args.trace:
        result.layer["host.steal_share"] = Measured(steal_share, ticks)

    try:
        _resolve(result)
    except ThinTailError as error:
        print(f"perfbench: refusing to report a percentile: {error}", file=sys.stderr)
        return 3
    _check_host(result, OUT)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    source = result.layer if args.trace else result.e2e
    if not args.trace:
        _print_table(f"{args.workload} seed {args.seed}: end-to-end", result.e2e, units)
    metrics = {}
    for name in wanted:
        if name in source:
            value = float(source[name].value)
        elif name in result.unmeasured:
            value = 0.0
        else:
            # The workload measures it, so its absence is a benchmark bug.
            raise KeyError(f"metric {name} was not measured on {args.workload}")
        metrics[name] = {"value": value, "unit": units[name]}

    if args.trace:
        _print_table(f"{args.workload} seed {args.seed}: per-layer", result.layer, units)
        for name, reason in sorted(result.unmeasured.items()):
            print(f"  not measured here: {name} ({reason}); reported as 0", file=sys.stderr)
        rows = _ledger(result, rounds_per_request)
        lines = [f"ledger ({args.workload}, seed {args.seed}): layer, time, overhead over the layer beneath"]
        previous = None
        for name, value, unit in rows:
            over = "" if previous is None else f"{value - previous:+10.3f}"
            lines.append(f"  {name:40s} {value:10.3f} {unit:10s} {over}")
            previous = value
        lines.append(f"  trace.overhead_share {result.layer['trace.overhead_share'].value:.4f}")
        print("\n".join(lines), file=sys.stderr)
        with open(os.path.join(out_dir, stamp + "-ledger.txt"), "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        if result.tracer is not None:
            result.tracer.write(os.path.join(out_dir, stamp + "-spans.jsonl"))

    for line in result.notes + result.problems:
        print(f"  {line}", file=sys.stderr)
    for reason in result.invalid:
        print(f"  INVALID RUN: {reason}", file=sys.stderr)

    correct = not result.problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "valid": not result.invalid,
        "invalid": result.invalid,
        "validity": result.validity,
        "e2e": {k: [v.value, v.n] for k, v in result.e2e.items()},
        "layer": {k: [v.value, v.n] for k, v in result.layer.items()},
        "unmeasured": result.unmeasured,
        "problems": result.problems,
    }
    with open(os.path.join(out_dir, stamp + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if correct and result.invalid:
        print("perfbench: invalid run, no result printed", file=sys.stderr)
        return 4

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
