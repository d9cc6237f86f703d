"""The multi-process serving tier (`repro.service.shard` and friends).

Covers the scaling contracts of ``docs/service.md``:

* **bit-identity at any worker count** — decisions served through the
  sharded front tier at ``--workers`` 1/2/4 are bit-identical to
  ``run_cell_spec``;
* **least-owed routing** — a request goes to the live shard owing the
  fewest rounds, ties to the session's stable home shard, and the owed
  counts settle to zero however requests end;
* **backpressure** — a saturated DSP lane surfaces as a ``busy`` error,
  and only rounds holding an in-flight slot queue for DSP;
* **graceful shutdown** — draining finishes in-flight streams while new
  requests get ``busy``, both in-process and through a worker SIGTERM;
* **telemetry** — the ``stats`` wire message reports the scheduler's
  cumulative counters, one reply per shard.

Spawned worker processes each pay the package import (~seconds), so the
sharded tests keep worker counts and round counts small.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.ranging import RangingOutcome
from repro.eval.engine import TrialSpec, run_cell_spec
from repro.service import (
    AuthClient,
    AuthService,
    DelayBatch,
    FaultPlan,
    RangingRequest,
    RequestComplete,
    RoundDecision,
    ServiceError,
    ShardedAuthServer,
    session_key,
    shard_for_session,
)
from repro.service.loadgen import run_loadgen
from repro.service.protocol import encode_message

ENV = "quiet_lab"
SEED = 3


def run_async(coro):
    return asyncio.run(coro)


def engine_outcomes(
    distance_m: float, n_trials: int, seed: int = SEED
) -> list[RangingOutcome]:
    spec = TrialSpec(
        environment=ENV, distance_m=distance_m, n_trials=n_trials, seed=seed
    )
    return run_cell_spec(spec).outcomes


def assert_matches_outcome(decision: RoundDecision, outcome: RangingOutcome):
    assert decision.status == outcome.status.value
    assert decision.distance_m == outcome.distance_m
    assert decision.elapsed_s == outcome.elapsed_s
    assert decision.energy_j == outcome.energy_j


# ----------------------------------------------------------------------
# Shard routing
# ----------------------------------------------------------------------


def test_session_key_ignores_request_framing():
    base = dict(environment=ENV, distance_m=0.8, seed=SEED)
    a = RangingRequest(request_id="a", rounds=1, first_trial=0, **base)
    b = RangingRequest(request_id="b", rounds=7, first_trial=40, **base)
    assert session_key(a) == session_key(b)
    # Distinct cells get distinct keys (floats via exact repr).
    c = RangingRequest(request_id="c", **{**base, "distance_m": 0.8000001})
    assert session_key(c) != session_key(a)


def test_shard_routing_is_stable_and_covers_all_shards():
    # Golden values: the home-shard hash breaks routing ties, so an idle
    # tier routes exactly as before a restart; an accidental hash change
    # must fail loudly here.
    assert [shard_for_session("office|1.0|0", n) for n in (1, 2, 4)] == [0, 1, 3]
    assert [shard_for_session("quiet_lab|0.8|3", n) for n in (1, 2, 4)] == [0, 0, 0]
    assert [shard_for_session("home|1.5|7", n) for n in (1, 2, 4)] == [0, 1, 1]
    # Deterministic on repeat, in range, and all shards reachable.
    for shards in (1, 2, 4):
        seen = set()
        for seed in range(64):
            key = session_key(
                RangingRequest(
                    request_id="r",
                    environment=ENV,
                    distance_m=1.0,
                    seed=seed,
                )
            )
            shard = shard_for_session(key, shards)
            assert shard == shard_for_session(key, shards)
            assert 0 <= shard < shards
            seen.add(shard)
        assert seen == set(range(shards))
    with pytest.raises(ValueError):
        shard_for_session("x", 0)


async def wait_for(predicate, timeout_s: float = 30.0) -> None:
    """Poll ``predicate`` until it holds; fail after ``timeout_s``."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.01)


def test_held_shard_sends_the_next_request_to_the_idle_one():
    """While the home shard's batch is held, it owes rounds and the idle
    shard does not, so a request homed there goes to the idle shard.
    Owed rounds settle to zero after completion and after a client
    hangs up mid-request."""
    held = RangingRequest(
        request_id="held", environment=ENV, distance_m=0.8, seed=SEED
    )
    home = shard_for_session(session_key(held), 2)
    # Another session with the same home shard.
    seed = next(
        seed
        for seed in range(SEED + 1, SEED + 64)
        if shard_for_session(f"{ENV}|1.2|{seed}", 2) == home
    )
    plan = FaultPlan(delay_batches=(DelayBatch(0, 1000.0),))

    async def go():
        async with ShardedAuthServer(2, fault_plan=plan) as front:
            server = await front.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with await AuthClient.connect("127.0.0.1", port) as client:
                first = asyncio.get_running_loop().create_task(
                    client.authenticate(
                        environment=ENV,
                        distance_m=0.8,
                        seed=SEED,
                        rounds=2,
                        threshold_m=2.0,
                    )
                )
                await wait_for(lambda: front.owed_rounds[home] == 2)
                assert sum(front.owed_rounds) == 2
                await client.authenticate(
                    environment=ENV,
                    distance_m=1.2,
                    seed=seed,
                    rounds=1,
                    threshold_m=2.0,
                )
                await first
                completed = front.owed_rounds
                stats = await client.stats()

                # Hang up with a request in flight: its rounds stay owed
                # until the worker answers, then settle.
                _, writer = await asyncio.open_connection("127.0.0.1", port)
                request = RangingRequest(
                    request_id="hang-up",
                    environment=ENV,
                    distance_m=0.8,
                    seed=SEED,
                    first_trial=2,
                    threshold_m=2.0,
                )
                writer.write((encode_message(request) + "\n").encode())
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                for _ in range(1500):
                    replies = await client.stats()
                    if sum(reply.rounds for reply in replies) == 4:
                        break
                    await asyncio.sleep(0.02)
                else:
                    pytest.fail("the hung-up request never ran")
                await wait_for(lambda: front.owed_rounds == (0, 0))
            server.close()
            await server.wait_closed()
            return completed, stats

    completed, stats = run_async(go())
    assert completed == (0, 0)
    rounds = {reply.shard: reply.rounds for reply in stats}
    assert rounds == {home: 2, 1 - home: 1}


# ----------------------------------------------------------------------
# Bit-identity: sharded front tier at several worker counts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sharded_server_matches_engine_cells(workers):
    cells = [(0.8, SEED), (1.2, SEED + 1)]
    expected = {
        (distance, seed): engine_outcomes(distance, 2, seed=seed)
        for distance, seed in cells
    }

    async def go():
        async with ShardedAuthServer(workers) as front:
            server = await front.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with await AuthClient.connect("127.0.0.1", port) as client:
                served = await asyncio.gather(
                    *(
                        client.authenticate(
                            environment=ENV,
                            distance_m=distance,
                            seed=seed,
                            rounds=2,
                            threshold_m=2.0,
                        )
                        for distance, seed in cells
                    )
                )
                stats = await client.stats()
            server.close()
            await server.wait_closed()
            return served, stats

    served, stats = run_async(go())
    for (distance, seed), result in zip(cells, served):
        assert result.complete is not None
        assert [r.round_index for r in result.rounds] == [0, 1]
        for decision, outcome in zip(result.rounds, expected[(distance, seed)]):
            assert_matches_outcome(decision, outcome)
    # Stats fan out: one reply per shard, jointly accounting every round.
    assert [reply.shard for reply in stats] == list(range(workers))
    assert all(reply.shards == workers for reply in stats)
    assert sum(reply.rounds for reply in stats) == 2 * len(cells)


# ----------------------------------------------------------------------
# Backpressure under a saturated pool
# ----------------------------------------------------------------------


def test_saturated_pool_surfaces_busy_over_tcp():
    async def go():
        # A 2-round queue behind a 64-round gate: eager round
        # preparation outruns the DSP pass and overflows into ``busy``.
        service = AuthService(queue_limit=2, max_inflight_rounds=64)
        async with service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with await AuthClient.connect("127.0.0.1", port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    await client.authenticate(
                        environment=ENV,
                        distance_m=0.8,
                        seed=SEED,
                        rounds=30,
                        threshold_m=2.0,
                    )
            server.close()
            await server.wait_closed()
            return excinfo.value

    error = run_async(go())
    assert error.code == "busy"


def test_queue_limit_above_the_inflight_gate_never_rejects():
    """Only rounds holding one of the 32 ``max_inflight_rounds`` slots
    join the DSP queue, so a limit of 33 cannot fire: the remaining rounds
    wait at the gate, and a 40-round request completes."""

    async def go():
        async with AuthService(queue_limit=33) as service:
            request = RangingRequest(
                request_id="gate",
                environment=ENV,
                distance_m=0.8,
                seed=SEED,
                rounds=40,
                threshold_m=2.0,
            )
            messages = [m async for m in service.handle_request(request)]
            return messages, service.scheduler.stats

    messages, stats = run_async(go())
    assert len(messages) == 41
    assert isinstance(messages[-1], RequestComplete)
    assert stats.queue_high_water <= 32


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------


def test_drain_finishes_inflight_and_rejects_new():
    outcomes = engine_outcomes(0.8, 4)

    async def go():
        service = AuthService()
        async with service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with await AuthClient.connect("127.0.0.1", port) as client:
                stream = client.request(
                    environment=ENV,
                    distance_m=0.8,
                    seed=SEED,
                    rounds=4,
                    threshold_m=2.0,
                )
                first = await anext(stream)
                assert isinstance(first, RoundDecision)
                # Mid-stream: flip to draining.  The open stream must
                # finish; a new request must bounce with ``busy``.
                service.begin_draining()
                with pytest.raises(ServiceError) as excinfo:
                    await client.authenticate(
                        environment=ENV, distance_m=1.0, seed=99
                    )
                assert excinfo.value.code == "busy"
                rest = [message async for message in stream]
            await asyncio.wait_for(service.drain(), timeout=30)
            server.close()
            await server.wait_closed()
            return [first] + rest

    messages = run_async(go())
    assert isinstance(messages[-1], RequestComplete)
    decisions = messages[:-1]
    assert len(decisions) == 4
    for decision, outcome in zip(decisions, outcomes):
        assert_matches_outcome(decision, outcome)
    assert not any(isinstance(m, type(None)) for m in messages)


def test_sharded_drain_finishes_inflight_stream():
    outcomes = engine_outcomes(0.8, 3)

    async def go():
        front = ShardedAuthServer(2)
        async with front:
            server = await front.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with await AuthClient.connect("127.0.0.1", port) as client:
                stream = client.request(
                    environment=ENV,
                    distance_m=0.8,
                    seed=SEED,
                    rounds=3,
                    threshold_m=2.0,
                )
                first = await anext(stream)
                assert isinstance(first, RoundDecision)
                # SIGTERM the workers mid-stream: each drains, so the
                # in-flight stream completes before the worker exits,
                # while the router bounces new requests.
                drain = asyncio.get_running_loop().create_task(front.drain())
                await asyncio.sleep(0.05)
                with pytest.raises(ServiceError) as excinfo:
                    await client.authenticate(
                        environment=ENV, distance_m=1.0, seed=99
                    )
                assert excinfo.value.code == "busy"
                rest = [message async for message in stream]
                await asyncio.wait_for(drain, timeout=60)
            server.close()
            await server.wait_closed()
            return [first] + rest

    messages = run_async(go())
    assert isinstance(messages[-1], RequestComplete)
    decisions = messages[:-1]
    assert len(decisions) == 3
    for decision, outcome in zip(decisions, outcomes):
        assert_matches_outcome(decision, outcome)


# ----------------------------------------------------------------------
# Load generator (short smoke; the real runs live in the benchmark)
# ----------------------------------------------------------------------


def test_loadgen_closed_loop_measures_throughput():
    async def go():
        async with AuthService() as service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            report = await run_loadgen(
                "127.0.0.1",
                port,
                mode="closed",
                concurrency=4,
                duration_s=1.0,
                warmup_s=0.2,
                rounds=1,
                sessions=4,
                environment=ENV,
                distance_m=0.8,
                seed_base=SEED,
            )
            server.close()
            await server.wait_closed()
            return report

    report = run_async(go())
    assert report.requests > 0
    assert report.ok == report.requests
    assert report.failed == 0
    assert report.rounds_per_s > 0
    assert set(report.latency_ms) == {"p50", "p95", "p99", "mean", "max"}
    assert report.latency_ms["p50"] <= report.latency_ms["max"]
    payload = report.to_json()
    assert payload["mode"] == "closed"
    assert payload["scheduler_stats"] is not None
    assert payload["scheduler_stats"][0]["rounds"] >= report.rounds


def test_loadgen_open_loop_uses_scheduled_arrivals():
    async def go():
        async with AuthService() as service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            report = await run_loadgen(
                "127.0.0.1",
                port,
                mode="open",
                rate_rps=20.0,
                duration_s=1.0,
                warmup_s=0.2,
                rounds=1,
                sessions=4,
                environment=ENV,
                distance_m=0.8,
                seed_base=SEED,
                rng_seed=7,
            )
            server.close()
            await server.wait_closed()
            return report

    report = run_async(go())
    assert report.mode == "open"
    assert report.rate_rps == 20.0
    assert report.requests > 0
    assert report.failed == 0
