"""Load-generator accounting: percentiles, warmup, CO-safety, mixes.

These are pure-function tests over :mod:`repro.service.loadgen` — no
server is started.  The latency rules under test:

* latency is ``finished_s - scheduled_s`` (scheduled arrival, not send
  time), the standard guard against coordinated omission in open-loop
  mode;
* the warmup prefix is excluded by *scheduled* time, so a slow response
  to a warmup-scheduled request never leaks into the measured window;
* retry-inflated and first-attempt-only latency digests are reported
  separately, so self-healing runs can quantify what retries cost.
"""

from __future__ import annotations

import pytest

from repro.service.loadgen import (
    LoadgenReport,
    RequestCycler,
    RequestSample,
    _percentile,
    summarize,
)


def sample(
    scheduled: float,
    finished: float,
    outcome: str = "ok",
    attempts: int = 1,
    started: float | None = None,
    rounds: int = 1,
) -> RequestSample:
    return RequestSample(
        scheduled_s=scheduled,
        started_s=scheduled if started is None else started,
        finished_s=finished,
        outcome=outcome,
        rounds=rounds,
        attempts=attempts,
    )


def report(**overrides) -> LoadgenReport:
    defaults = dict(
        mode="open",
        concurrency=1,
        rate_rps=10.0,
        duration_s=1.0,
        warmup_s=0.0,
        rounds_per_request=1,
        sessions=1,
    )
    defaults.update(overrides)
    return LoadgenReport(**defaults)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert _percentile(values, 0.0) == 1.0
    assert _percentile(values, 0.5) == 3.0
    assert _percentile(values, 1.0) == 5.0
    assert _percentile([7.5], 0.99) == 7.5
    assert _percentile([], 0.5) == 0.0


def test_percentile_half_ties_round_up_not_bankers():
    # Regression: true nearest-rank is ceil(f·n) − 1.  The old
    # round(f·(n−1)) hit Python's banker's rounding on .5 ties —
    # round(1.5) == 2 — reporting p50 of 4 samples as the 3rd value.
    assert _percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert _percentile([1.0, 2.0], 0.5) == 1.0
    assert _percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0.5) == 3.0
    # p25 of 2: ceil(0.5) − 1 = index 0 (round(0.25) would also give 0,
    # but via a different formula — pin the nearest-rank answer).
    assert _percentile([1.0, 2.0], 0.25) == 1.0


def test_percentile_small_sample_tails():
    values = [10.0, 20.0, 30.0]
    # Nearest-rank p99 of a small sample is the max, p1 the min.
    assert _percentile(values, 0.99) == 30.0
    assert _percentile(values, 0.01) == 10.0
    assert _percentile(values, 1.0 / 3.0) == 10.0
    assert _percentile(values, 2.0 / 3.0) == 20.0


# ----------------------------------------------------------------------
# Coordinated-omission safety
# ----------------------------------------------------------------------


def test_latency_counts_from_scheduled_arrival_not_send():
    # The generator fell 2 s behind schedule; a CO-blind measurement
    # would report 0.1 s, hiding the stall the service caused.
    delayed = sample(scheduled=10.0, started=12.0, finished=12.1)
    assert delayed.latency_s == pytest.approx(2.1)
    folded = summarize([delayed], report(), warmup_end_s=0.0)
    assert folded.latency_ms["p50"] == pytest.approx(2100.0)


# ----------------------------------------------------------------------
# Warmup exclusion
# ----------------------------------------------------------------------


def test_warmup_is_excluded_by_scheduled_time():
    warm = sample(scheduled=0.5, finished=9.0)  # slow, but warmup-scheduled
    measured = [sample(scheduled=2.0 + i, finished=2.1 + i) for i in range(3)]
    folded = summarize([warm] + measured, report(), warmup_end_s=2.0)
    assert folded.requests == 3
    assert folded.ok == 3
    # The 8.5 s warmup straggler never contaminates the digests.
    assert folded.latency_ms["max"] == pytest.approx(100.0)
    # Throughput spans the measured window only.
    assert folded.measured_s == pytest.approx(2.1)
    assert folded.requests_per_s == pytest.approx(3 / 2.1)


def test_outcome_classes_are_counted_separately():
    samples = [
        sample(0.0, 0.1),
        sample(0.1, 0.2, outcome="busy"),
        sample(0.2, 0.3, outcome="timeout"),
        sample(0.3, 0.4, outcome="error"),
        sample(0.4, 0.5, outcome="failed"),
        sample(0.5, 0.6, outcome="ok", attempts=3),
    ]
    folded = summarize(samples, report(), warmup_end_s=0.0)
    assert (folded.requests, folded.ok) == (6, 2)
    assert (folded.busy, folded.timeout) == (1, 1)
    assert (folded.error, folded.failed) == (1, 1)
    assert folded.retried == 1


# ----------------------------------------------------------------------
# Retry-inflated vs first-attempt split
# ----------------------------------------------------------------------


def test_first_attempt_digest_excludes_retried_requests():
    first_try = [sample(float(i), float(i) + 0.1) for i in range(4)]
    retried = sample(10.0, 11.0, attempts=2)  # 1 s, backoff included
    folded = summarize(first_try + [retried], report(), warmup_end_s=0.0)
    assert folded.retried == 1
    # Retry-inflated digest sees the 1 s request...
    assert folded.latency_ms["max"] == pytest.approx(1000.0)
    # ...the first-attempt digest does not.
    assert folded.first_attempt_latency_ms["max"] == pytest.approx(100.0)
    assert folded.first_attempt_latency_ms["p50"] == pytest.approx(100.0)


def test_only_ok_requests_enter_latency_digests():
    samples = [
        sample(0.0, 5.0, outcome="timeout"),
        sample(1.0, 1.2),
    ]
    folded = summarize(samples, report(), warmup_end_s=0.0)
    assert folded.latency_ms["max"] == pytest.approx(200.0)


# ----------------------------------------------------------------------
# Request cycling
# ----------------------------------------------------------------------


def test_uniform_cycler_round_robins_and_advances_trials():
    cycler = RequestCycler.uniform("office", 1.0, 100, 3, 2)
    fields = [cycler.next() for _ in range(7)]
    assert [f["seed"] for f in fields] == [100, 101, 102, 100, 101, 102, 100]
    assert [f["first_trial"] for f in fields] == [0, 0, 0, 2, 2, 2, 4]
    assert all(f["environment"] == "office" for f in fields)
    assert all(f["rounds"] == 2 for f in fields)


def test_explicit_mix_cycles_heterogeneous_identities():
    cycler = RequestCycler(
        [
            {"environment": "office", "distance_m": 0.5, "seed": 1, "rounds": 2},
            {"environment": "cafe", "distance_m": 2.0, "seed": 9, "rounds": 3},
        ]
    )
    first, second, third, fourth = (cycler.next() for _ in range(4))
    assert (first["environment"], first["first_trial"]) == ("office", 0)
    assert (second["environment"], second["first_trial"]) == ("cafe", 0)
    assert (third["seed"], third["first_trial"]) == (1, 2)
    assert (fourth["seed"], fourth["first_trial"]) == (9, 3)


def test_empty_mix_is_rejected():
    with pytest.raises(ValueError):
        RequestCycler([])


# ----------------------------------------------------------------------
# Scenario-derived mixes
# ----------------------------------------------------------------------


def test_request_mix_from_scenario_serves_servable_cells():
    from repro.service.loadgen import request_mix_from_scenario

    mix = request_mix_from_scenario("paper-office", rounds=2)
    assert mix == [
        {
            "environment": "office",
            "distance_m": distance,
            "seed": 0,
            "rounds": 2,
        }
        for distance in (0.5, 1.0, 1.5, 2.0)
    ]
    # Timed scenarios contribute their preset-noise epochs with their
    # per-epoch derived seeds; the scaled-band epoch is excluded.
    reauth = request_mix_from_scenario("home-reauth")
    assert len(reauth) == 7
    assert len({item["seed"] for item in reauth}) == 7
    assert all(item["environment"] == "home" for item in reauth)
    # Mixes feed straight into the cycler.
    assert RequestCycler(reauth).next()["first_trial"] == 0


def test_request_mix_from_scenario_rejects_unservable_scenarios():
    from repro.scenarios import ScenarioError
    from repro.service.loadgen import request_mix_from_scenario

    with pytest.raises(ScenarioError, match="no servable cells"):
        request_mix_from_scenario("home-hidden-command")
