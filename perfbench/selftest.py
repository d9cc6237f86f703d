"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection:
the smoke runs spawn servers and take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import paper  # noqa: E402
import paper_pass  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
from stats import MIN_TAIL, ThinTailError, median_of, percentile  # noqa: E402
from workload import (  # noqa: E402
    HOT_ROTATE_EVERY,
    closed_stream,
    hot_sessions,
    light_sessions,
)

# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


def _stream(name, seed, count=300):
    profile = serve.PROFILES[name]
    stream = closed_stream(seed, profile.sessions(seed), profile.zipf_s, profile.rounds)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("name", ["serve-light", "serve-hot"])
def test_same_seed_same_stream(name):
    assert _stream(name, 7) == _stream(name, 7)


@pytest.mark.parametrize("name", ["serve-light", "serve-hot"])
def test_other_seed_other_stream(name):
    assert [r.session for r in _stream(name, 7)] != [r.session for r in _stream(name, 8)]


def test_session_pools_are_wide_enough():
    assert len({(s.environment, s.distance_m, s.seed) for s in light_sessions(0)}) == 1024
    assert len(set(hot_sessions(0))) == 32


def test_requests_address_fresh_trials():
    for requests in (_stream("serve-light", 5), _stream("serve-hot", 5)):
        seen = set()
        for request in requests:
            for trial in range(request.first_trial, request.first_trial + request.rounds):
                key = (request.session, trial)
                assert key not in seen
                seen.add(key)


def test_zipf_stream_is_skewed_and_rotates():
    requests = _stream("serve-hot", 2, count=2 * HOT_ROTATE_EVERY)
    phases = [requests[:HOT_ROTATE_EVERY], requests[HOT_ROTATE_EVERY:]]
    hottest = []
    for phase in phases:
        counts = {}
        for request in phase:
            counts[request.session] = counts.get(request.session, 0) + 1
        top = max(counts, key=counts.get)
        # Uniform draws would give each of 32 sessions about 2 of 64.
        assert counts[top] >= 8
        hottest.append(top)
    assert hottest[0] != hottest[1]


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))  # 1..200
    assert percentile(values, 0.5).value == 100
    assert percentile(values, 0.95).value == 190
    assert percentile(values, 0.95).n == 200
    shuffled = values[::-1]
    assert percentile(shuffled, 0.5).value == 100


def test_percentile_refuses_thin_tails():
    with pytest.raises(ThinTailError):
        percentile(list(range(199)), 0.95)  # rank 190, 9 beyond
    percentile(list(range(200)), 0.95)  # rank 190, 10 beyond
    with pytest.raises(ThinTailError):
        percentile(list(range(2 * MIN_TAIL - 1)), 0.5)
    percentile(list(range(2 * MIN_TAIL)), 0.5)
    with pytest.raises(ThinTailError):
        percentile([1.0], 0.5)


def test_percentile_rejects_bad_fraction():
    with pytest.raises(ValueError):
        percentile(list(range(100)), 1.0)


def test_median_of_repeats_counts_samples():
    assert median_of([3.0, 1.0, 2.0]).value == 2.0
    assert median_of([3.0, 1.0, 2.0]).n == 3


# ----------------------------------------------------------------------
# Digest check
# ----------------------------------------------------------------------


def test_report_digest_ignores_timing_lines():
    text = "== fig1: errors ==\nrow 1 2 3"
    timed = text + "\n[fig1 completed: 10 trials in 1.0s (10.0 trials/s)]"
    assert paper_pass.report_digest(text) == paper_pass.report_digest(timed)
    assert paper_pass.report_digest(text) != paper_pass.report_digest(text + "4")


def test_digest_check_flags_only_changed_reports():
    pinned = {"fig1": "a", "wall": "b"}
    assert paper.check_digests({"fig1": "a", "wall": "b"}, pinned) == {}
    assert set(paper.check_digests({"fig1": "a", "wall": "c"}, pinned)) == {"wall"}
    assert set(paper.check_digests({"fig1": "a"}, pinned)) == {"wall"}
    assert paper.check_digests({"fig1": "x"}, None) == {}


def test_default_seed_has_pinned_digests_for_every_experiment():
    from repro.eval.registry import list_experiments

    pinned = paper.pinned_digests(0)
    assert set(pinned) == {entry.name for entry in list_experiments()}


# ----------------------------------------------------------------------
# Smoke runs (seconds long; percentiles beyond what they support refuse)
# ----------------------------------------------------------------------


def _resolve_split(result):
    """Resolve percentiles one by one; names that refused, in order."""
    refused = []
    for item in list(result.percentiles):
        result.percentiles = [item]
        try:
            run._resolve(result)
        except ThinTailError:
            refused.append(item[1])
    return refused


def test_smoke_paper(tmp_path, monkeypatch):
    monkeypatch.setattr(paper, "MIN_PASSES", 1)
    result = paper.run_paper(ROOT, 0, 1.0, False, str(tmp_path))
    assert result.problems == []
    assert result.attempted == 10 and result.failed == 0
    assert result.e2e["rounds_per_s"].value > 0
    # One pass re-runs too few serial rounds for a p95, enough for a median.
    assert _resolve_split(result) == ["latency_p95_ms"]
    assert result.e2e["latency_p50_ms"].n == 75


@pytest.mark.parametrize("name, seconds", [("serve-light", 4.0), ("serve-hot", 3.0)])
def test_smoke_serve(tmp_path, name, seconds):
    result = serve.run_serve(ROOT, serve.PROFILES[name], 0, seconds, False, str(tmp_path))
    assert result.problems == []
    assert result.failed == 0 and result.attempted > 0
    assert result.e2e["completed_share"].value == 1.0
    assert "latency_p95_ms" in _resolve_split(result)


def _most_in_flight(spans):
    """Most spans open at once (one ending as another starts: not both)."""
    events = sorted([(s.start, 1) for s in spans] + [(s.end, -1) for s in spans])
    most = current = 0
    for _, step in events:
        current += step
        most = max(most, current)
    return most


def test_smoke_serve_light_traced(tmp_path):
    profile = serve.PROFILES["serve-light"]
    result = serve.run_serve(ROOT, profile, 1, 4.0, True, str(tmp_path))
    assert result.problems == []
    _resolve_split(result)
    layer, spans = result.layer, result.tracer.spans
    assert layer["pipeline.rounds_per_pass"].value == 1
    assert layer["dsp.window_powers.calls_per_round"].value > 0
    assert {s.name for s in spans} >= {
        "request.tcp",
        "client.authenticate",
        "request.inproc",
        "service.handle_request",
        "stage.detect",
        "dsp.rfft",
    }
    # Kernel spans sit under the runner stage they ran in.
    by_id = {s.id: s for s in spans}
    detect_kernels = [
        s for s in spans
        if s.name.startswith("dsp.") and s.parent in by_id
        and by_id[s.parent].name == "stage.detect"
    ]
    assert detect_kernels
    # The window cannot queue more rounds than it has requests in flight.
    window = [
        s for s in spans
        if s.name == "client.authenticate" and s.request.startswith("tcp-")
    ]
    in_flight = _most_in_flight(window)
    assert 1 <= layer["scheduler.queue_high_water"].value <= in_flight * profile.rounds


@pytest.mark.parametrize("cause", ["late generator", "other backend"])
def test_invalid_run_prints_no_result(tmp_path, monkeypatch, capsys, cause):
    from host import cpu_count
    from result import WorkloadResult
    from stats import Measured

    def fake_run(root, seed, seconds, trace, out_dir):
        result = WorkloadResult("paper")
        for metric in run._load_spec()["end_to_end"]:
            result.e2e[metric["name"]] = Measured(1.0, 1)
        result.attempted = 1
        result.backend = "numpy"
        result.backends = {"numpy"}
        if cause == "late generator":
            result.invalid.append("generator ran 30.0 ms late at p95")
        return result

    if cause == "other backend":
        host = {"backend": "other", "nproc": cpu_count()}
        (tmp_path / "host.json").write_text(json.dumps(host))
    monkeypatch.setattr(paper, "run_paper", fake_run)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    argv = ["--workload", "paper", "--seed", "0", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 4
    assert capsys.readouterr().out == ""


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
