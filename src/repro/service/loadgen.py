"""Load generation against a running authentication service.

Two arrival disciplines, both driving the JSON-lines TCP endpoint the
way real callers would (over :class:`~repro.service.AuthClient`
connections, many requests multiplexed per connection):

* **closed loop** — a fixed number of concurrent virtual clients, each
  issuing its next request the moment the previous one completes.
  Measures sustained capacity: the service is always saturated at
  exactly ``concurrency`` in-flight requests.
* **open loop** — requests arrive on a Poisson process at a target rate
  regardless of how fast the service answers.  Latency is measured from
  each request's *scheduled* arrival time, not from when the generator
  got around to sending it — the standard guard against coordinated
  omission, where a stalled service would otherwise pause the generator
  and hide its own worst latencies.

Requests cycle through a pool of ``sessions`` distinct (seed-varied)
cells so a sharded server (``--workers N``) sees traffic across all its
shards, and ``first_trial`` advances per request so repeated visits to
one session address fresh trials (each request stays bit-identical to
its engine trial regardless).

The warmup prefix is excluded from the report; after the run the
generator asks the server for its cumulative scheduler statistics
(:meth:`~repro.service.AuthClient.stats`) and attaches one entry per
shard.  :func:`run_loadgen` is the library entry point —
``tools/loadgen.py`` is its CLI.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.service.client import AuthClient, RetryPolicy, ServiceError

__all__ = [
    "LoadgenReport",
    "RequestCycler",
    "RequestSample",
    "request_mix_from_scenario",
    "run_loadgen",
]

#: Arrival disciplines understood by :func:`run_loadgen`.
LOADGEN_MODES = ("closed", "open")


@dataclass(frozen=True)
class RequestSample:
    """One request's timing, on the event-loop clock (seconds).

    ``scheduled_s`` is the intended arrival time — equal to
    ``started_s`` in closed-loop mode, the Poisson arrival point in
    open-loop mode (latency is ``finished_s - scheduled_s`` there).
    """

    scheduled_s: float
    started_s: float
    finished_s: float
    outcome: str  # "ok" | "busy" | "timeout" | "error" | "failed"
    rounds: int
    #: Attempts the client spent (1 = first try sufficed; > 1 = retried).
    attempts: int = 1

    @property
    def latency_s(self) -> float:
        return self.finished_s - self.scheduled_s

    @property
    def retried(self) -> bool:
        return self.attempts > 1


@dataclass
class LoadgenReport:
    """What one load-generation run measured (post-warmup window only)."""

    mode: str
    concurrency: int
    rate_rps: float | None
    duration_s: float
    warmup_s: float
    rounds_per_request: int
    sessions: int
    requests: int = 0
    ok: int = 0
    busy: int = 0
    #: Requests that exhausted their budget on a structured ``timeout``.
    timeout: int = 0
    #: Requests ending in any other structured error reply
    #: (``unavailable`` past the retry budget, ``internal-error``, ...).
    error: int = 0
    #: Requests ending in transport failure (no structured reply at all).
    failed: int = 0
    #: Requests (any outcome) that needed more than one attempt — the
    #: measure of how much self-healing the run exercised.
    retried: int = 0
    rounds: int = 0
    measured_s: float = 0.0
    requests_per_s: float = 0.0
    rounds_per_s: float = 0.0
    #: Latency of ok requests as experienced (retry-inflated: backoff
    #: and re-execution included).
    latency_ms: dict[str, float] = field(default_factory=dict)
    #: Latency of ok requests that succeeded on their first attempt —
    #: the service's intrinsic latency, separated so chaos runs can
    #: compare it against the retry-inflated figure above.
    first_attempt_latency_ms: dict[str, float] = field(default_factory=dict)
    #: One entry per shard, from the server's ``stats_reply`` messages.
    scheduler_stats: list[dict] | None = None

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "concurrency": self.concurrency,
            "rate_rps": self.rate_rps,
            "duration_s": self.duration_s,
            "warmup_s": self.warmup_s,
            "rounds_per_request": self.rounds_per_request,
            "sessions": self.sessions,
            "requests": self.requests,
            "ok": self.ok,
            "busy": self.busy,
            "timeout": self.timeout,
            "error": self.error,
            "failed": self.failed,
            "retried": self.retried,
            "rounds": self.rounds,
            "measured_s": round(self.measured_s, 4),
            "requests_per_s": round(self.requests_per_s, 3),
            "rounds_per_s": round(self.rounds_per_s, 3),
            "latency_ms": {
                key: round(value, 3)
                for key, value in self.latency_ms.items()
            },
            "first_attempt_latency_ms": {
                key: round(value, 3)
                for key, value in self.first_attempt_latency_ms.items()
            },
            "scheduler_stats": self.scheduler_stats,
        }


class RequestCycler:
    """Round-robin over a request mix, advancing trials per revisit.

    Each mix item describes one session identity — ``environment``,
    ``distance_m``, ``seed``, ``rounds`` — and consecutive requests cycle
    the pool so a sharded server sees traffic on every shard.  When the
    cycle returns to an item, ``first_trial`` has advanced by that item's
    ``rounds``, so repeated visits address fresh trials while every
    individual request stays bit-identical to its engine trial.
    """

    def __init__(self, mix: Sequence[dict]) -> None:
        if not mix:
            raise ValueError("request mix must not be empty")
        self.mix = [dict(item) for item in mix]
        self.counter = 0

    @classmethod
    def uniform(
        cls,
        environment: str,
        distance_m: float,
        seed_base: int,
        sessions: int,
        rounds: int,
    ) -> "RequestCycler":
        """The default mix: one cell, ``sessions`` seed-varied identities."""
        return cls(
            [
                {
                    "environment": environment,
                    "distance_m": distance_m,
                    "seed": seed_base + session,
                    "rounds": rounds,
                }
                for session in range(sessions)
            ]
        )

    def __len__(self) -> int:
        return len(self.mix)

    def next(self) -> dict:
        """Request fields for the next arrival (excluding policy knobs)."""
        index = self.counter
        self.counter += 1
        item = self.mix[index % len(self.mix)]
        return {
            "environment": item["environment"],
            "distance_m": item["distance_m"],
            "seed": item["seed"],
            "rounds": item["rounds"],
            "first_trial": (index // len(self.mix)) * item["rounds"],
        }


def request_mix_from_scenario(
    scenario, rounds: int | None = None
) -> list[dict]:
    """A request mix serving a compiled scenario's cells as live traffic.

    ``scenario`` is a :class:`repro.scenarios.CompiledScenario`, a
    :class:`repro.scenarios.ScenarioDoc`, a builtin scenario name, or a
    path to a scenario document file.  Only the scenario's *servable*
    cells (preset environment, no walls or interference — see
    :class:`repro.scenarios.CompiledCell`) become mix items; raises if
    the scenario has none.  ``rounds`` caps rounds per request (default:
    each cell's trial count).
    """
    from repro.scenarios import (
        BUILTIN_SCENARIOS,
        CompiledScenario,
        ScenarioDoc,
        compile_scenario,
        load_scenario,
    )

    if isinstance(scenario, str):
        if scenario in BUILTIN_SCENARIOS:
            scenario = BUILTIN_SCENARIOS[scenario]
        else:
            scenario = load_scenario(scenario)
    if isinstance(scenario, ScenarioDoc):
        scenario = compile_scenario(scenario)
    if not isinstance(scenario, CompiledScenario):
        raise TypeError(
            "scenario must be a CompiledScenario, ScenarioDoc, builtin "
            f"name, or document path, got {type(scenario).__name__}"
        )
    return scenario.request_mix(rounds=rounds)


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over pre-sorted values.

    True nearest-rank: the smallest value with at least ``fraction`` of
    the sample at or below it — ``sorted_values[ceil(fraction · n) − 1]``.
    (The earlier ``round(fraction · (n − 1))`` drifted on .5 ties under
    banker's rounding: p50 of 4 samples rounded 1.5 *down* to index 2's
    neighbor, overstating small-sample medians.)
    """
    if not sorted_values:
        return 0.0
    rank = math.ceil(fraction * len(sorted_values))
    rank = max(1, min(len(sorted_values), rank))
    return sorted_values[rank - 1]


def summarize(
    samples: Sequence[RequestSample], report: LoadgenReport, warmup_end_s: float
) -> LoadgenReport:
    """Fold samples scheduled after warmup into ``report`` (in place)."""
    measured = [s for s in samples if s.scheduled_s >= warmup_end_s]
    report.requests = len(measured)
    report.ok = sum(1 for s in measured if s.outcome == "ok")
    report.busy = sum(1 for s in measured if s.outcome == "busy")
    report.timeout = sum(1 for s in measured if s.outcome == "timeout")
    report.error = sum(1 for s in measured if s.outcome == "error")
    report.failed = sum(1 for s in measured if s.outcome == "failed")
    report.retried = sum(1 for s in measured if s.retried)
    report.rounds = sum(s.rounds for s in measured)
    if measured:
        span_start = min(s.scheduled_s for s in measured)
        span_end = max(s.finished_s for s in measured)
        report.measured_s = max(span_end - span_start, 1e-9)
        report.requests_per_s = report.requests / report.measured_s
        report.rounds_per_s = report.rounds / report.measured_s

        def digest(latencies: list[float]) -> dict[str, float]:
            return {
                "p50": 1e3 * _percentile(latencies, 0.50),
                "p95": 1e3 * _percentile(latencies, 0.95),
                "p99": 1e3 * _percentile(latencies, 0.99),
                "mean": 1e3 * sum(latencies) / len(latencies),
                "max": 1e3 * latencies[-1],
            }

        latencies = sorted(s.latency_s for s in measured if s.outcome == "ok")
        if latencies:
            report.latency_ms = digest(latencies)
        first_attempt = sorted(
            s.latency_s
            for s in measured
            if s.outcome == "ok" and not s.retried
        )
        if first_attempt:
            report.first_attempt_latency_ms = digest(first_attempt)
    return report


async def _issue(
    client: AuthClient,
    *,
    scheduled_s: float,
    environment: str,
    distance_m: float,
    seed: int,
    rounds: int,
    first_trial: int,
    threshold_m: float,
    deadline_ms: float,
    retry: RetryPolicy | None,
    samples: list[RequestSample],
) -> None:
    """Send one request, await its stream, and record the sample.

    Outcome classes: ``ok`` (grant/deny decided), ``busy`` / ``timeout``
    (structured backpressure / deadline replies surviving the retry
    budget), ``error`` (any other structured error reply), ``failed``
    (transport-level loss — no structured reply at all).  ``attempts``
    counts what the retry budget spent either way.
    """
    loop = asyncio.get_running_loop()
    started = loop.time()
    outcome, served_rounds, attempts = "ok", 0, 1
    try:
        served = await client.authenticate(
            retry=retry,
            environment=environment,
            distance_m=distance_m,
            seed=seed,
            rounds=rounds,
            first_trial=first_trial,
            threshold_m=threshold_m,
            deadline_ms=deadline_ms,
        )
        served_rounds = len(served.rounds)
        attempts = served.attempts
    except ServiceError as error:
        attempts = getattr(error, "attempts", 1)
        if error.code in ("busy", "timeout"):
            outcome = error.code
        else:
            outcome = "error"
    except (ConnectionError, OSError) as error:
        attempts = getattr(error, "attempts", 1)
        outcome = "failed"
    samples.append(
        RequestSample(
            scheduled_s=scheduled_s,
            started_s=started,
            finished_s=loop.time(),
            outcome=outcome,
            rounds=served_rounds,
            attempts=attempts,
        )
    )


async def run_loadgen(
    host: str,
    port: int,
    *,
    mode: str = "closed",
    concurrency: int = 8,
    rate_rps: float = 20.0,
    duration_s: float = 10.0,
    warmup_s: float = 2.0,
    rounds: int = 1,
    sessions: int = 8,
    environment: str = "office",
    distance_m: float = 1.0,
    seed_base: int = 0,
    threshold_m: float = 2.0,
    connections: int | None = None,
    rng_seed: int = 0,
    deadline_ms: float = 0.0,
    retry: RetryPolicy | None = None,
    mix: Sequence[dict] | None = None,
) -> LoadgenReport:
    """Drive the service and return the measured :class:`LoadgenReport`.

    ``mode`` selects the arrival discipline (see the module docstring);
    closed-loop uses ``concurrency`` virtual clients, open-loop uses
    ``rate_rps`` Poisson arrivals (``rng_seed`` fixes the arrival
    process, so a run is reproducible end to end).  ``connections``
    caps the TCP connections the generator opens (requests multiplex);
    it defaults to ``concurrency`` capped at 8.  ``deadline_ms``
    stamps every request with a server-side deadline budget, and
    ``retry`` arms the client's self-healing path (both off by
    default, keeping steady-state benchmarks comparable to before).
    ``mix`` replaces the default seed-varied session pool with explicit
    request identities (see :class:`RequestCycler` and
    :func:`request_mix_from_scenario`); ``sessions`` / ``environment`` /
    ``distance_m`` / ``seed_base`` are ignored when it is given.
    """
    if mode not in LOADGEN_MODES:
        raise ValueError(f"mode must be one of {LOADGEN_MODES}, got {mode!r}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency!r}")
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions!r}")
    if mix is not None:
        cycler = RequestCycler(mix)
    else:
        cycler = RequestCycler.uniform(
            environment, distance_m, seed_base, sessions, rounds
        )
    n_connections = connections or min(concurrency, 8)
    clients = [
        await AuthClient.connect(host, port) for _ in range(n_connections)
    ]
    samples: list[RequestSample] = []
    loop = asyncio.get_running_loop()
    start = loop.time()
    deadline = start + warmup_s + duration_s

    def next_request():
        """Cycle the request mix; stamp the run-wide policy knobs."""
        fields = cycler.next()
        fields["threshold_m"] = threshold_m
        fields["deadline_ms"] = deadline_ms
        return fields

    try:
        if mode == "closed":

            async def virtual_client(worker: int) -> None:
                client = clients[worker % n_connections]
                while loop.time() < deadline:
                    fields = next_request()
                    now = loop.time()
                    await _issue(
                        client,
                        scheduled_s=now,
                        samples=samples,
                        retry=retry,
                        **fields,
                    )

            await asyncio.gather(
                *(virtual_client(i) for i in range(concurrency))
            )
        else:
            if rate_rps <= 0:
                raise ValueError(f"rate_rps must be > 0, got {rate_rps!r}")
            arrivals = random.Random(rng_seed)
            tasks: list[asyncio.Task] = []
            scheduled = start
            while True:
                scheduled += arrivals.expovariate(rate_rps)
                if scheduled >= deadline:
                    break
                delay = scheduled - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                fields = next_request()
                client = clients[len(tasks) % n_connections]
                tasks.append(
                    loop.create_task(
                        _issue(
                            client,
                            scheduled_s=scheduled,
                            samples=samples,
                            retry=retry,
                            **fields,
                        )
                    )
                )
            if tasks:
                await asyncio.gather(*tasks)

        report = LoadgenReport(
            mode=mode,
            concurrency=concurrency,
            rate_rps=rate_rps if mode == "open" else None,
            duration_s=duration_s,
            warmup_s=warmup_s,
            rounds_per_request=rounds,
            sessions=len(cycler),
        )
        summarize(samples, report, warmup_end_s=start + warmup_s)
        try:
            replies = await clients[0].stats()
            report.scheduler_stats = [
                {
                    "shard": reply.shard,
                    "shards": reply.shards,
                    "rounds": reply.rounds,
                    "batches": reply.batches,
                    "largest_batch": reply.largest_batch,
                    "queue_high_water": reply.queue_high_water,
                    "linger_wait_s": round(reply.linger_wait_s, 6),
                    "batch_histogram": reply.batch_histogram,
                    "deadline_expired": reply.deadline_expired,
                    "dsp_timeouts": reply.dsp_timeouts,
                }
                for reply in replies
            ]
        except Exception:
            report.scheduler_stats = None
        return report
    finally:
        for client in clients:
            await client.close()
