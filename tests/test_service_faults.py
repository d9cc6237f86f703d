"""Fault tolerance of the serving tier (`repro.service.faults` et al.).

Every failure mode the self-healing layer handles is injected
*deterministically* through a :class:`FaultPlan` (or a monkeypatch where
a plan cannot reach, e.g. a wedged DSP executor) and asserted against
the two safety contracts:

* **fail closed** — every failure path ends in a structured
  :class:`ErrorReply` (deny), never a grant, and never a torn-down
  stream;
* **retry idempotency** — a retry of the same request id yields
  decisions *byte-identical* to the unfaulted run (determinism in
  ``(session, trial)``, whichever worker serves the retry), so the
  granted set under any fault schedule is a subset of the unfaulted
  run's, and a retried round counts once in ``calibrate``.

The worker SIGKILL → supervised respawn test also exercises the
router's frame handling — malformed JSON, oversized lines — so that
expensive worker startup is paid once.  `tools/chaos_smoke.py` covers
the same kill path under sustained load in CI.  Two more spawned-process
tests cover the router's own lifetime: connection handlers that outlive
their client must survive a GC pass, and a failed start must take its
workers down with it.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.ranging import RangingOutcome
from repro.eval.engine import TrialSpec, run_cell_spec
from repro.service import (
    AuthClient,
    AuthService,
    BusyOnce,
    DelayBatch,
    ErrorReply,
    FaultInjector,
    FaultPlan,
    FrameFault,
    KillWorker,
    RangingRequest,
    RequestComplete,
    RetryPolicy,
    RoundDecision,
    ServiceError,
    ShardedAuthServer,
    encode_message,
    session_key,
    shard_for_session,
)

ENV = "quiet_lab"
SEED = 3


def run_async(coro):
    return asyncio.run(coro)


async def collect(service: AuthService, request: RangingRequest):
    return [message async for message in service.handle_request(request)]


def engine_outcomes(
    distance_m: float, n_trials: int, seed: int = SEED
) -> list[RangingOutcome]:
    spec = TrialSpec(
        environment=ENV, distance_m=distance_m, n_trials=n_trials, seed=seed
    )
    return run_cell_spec(spec).outcomes


def assert_matches_outcome(decision: RoundDecision, outcome: RangingOutcome):
    """The wire decision must carry the outcome's exact bits."""
    assert decision.status == outcome.status.value
    assert decision.distance_m == outcome.distance_m
    assert decision.elapsed_s == outcome.elapsed_s
    assert decision.energy_j == outcome.energy_j


def ranging_request(request_id="r-1", rounds=2, **overrides) -> RangingRequest:
    fields = dict(
        request_id=request_id,
        environment=ENV,
        distance_m=0.8,
        seed=SEED,
        rounds=rounds,
        threshold_m=2.0,
    )
    fields.update(overrides)
    return RangingRequest(**fields)


# ----------------------------------------------------------------------
# FaultPlan / FaultInjector units
# ----------------------------------------------------------------------


def test_fault_plan_empty_and_worker_fault_views():
    assert FaultPlan().empty
    assert not FaultPlan(kill_workers=(KillWorker(0),)).empty
    assert not FaultPlan(kill_workers=(KillWorker(0),)).has_worker_faults
    assert FaultPlan(busy_once=(BusyOnce(),)).has_worker_faults
    assert FaultPlan(delay_batches=(DelayBatch(0, 5.0),)).has_worker_faults
    assert FaultPlan(frame_faults=(FrameFault(0),)).has_worker_faults


def test_frame_fault_rejects_unknown_mode():
    with pytest.raises(ValueError, match="drop"):
        FrameFault(0, mode="garble")


def test_injector_kill_worker_counts_per_shard_and_fires_once():
    plan = FaultPlan(kill_workers=(KillWorker(shard=1, after_requests=2),))
    injector = FaultInjector(plan)
    assert not injector.take_kill_worker(1)  # 1st request to shard 1
    assert not injector.take_kill_worker(0)  # other shard does not count
    assert injector.take_kill_worker(1)  # 2nd request: fire
    assert not injector.take_kill_worker(1)  # at most once


def test_injector_batch_delay_indexes_batches():
    plan = FaultPlan(delay_batches=(DelayBatch(batch_index=1, delay_ms=250),))
    injector = FaultInjector(plan)
    assert injector.take_batch_delay_s() == 0.0  # batch 0
    assert injector.take_batch_delay_s() == pytest.approx(0.25)  # batch 1
    assert injector.take_batch_delay_s() == 0.0  # batch 2


def test_injector_frame_and_busy_fire_once():
    plan = FaultPlan(
        frame_faults=(FrameFault(frame_index=1, mode="truncate"),),
        busy_once=(BusyOnce(request_index=0),),
    )
    injector = FaultInjector(plan)
    assert injector.take_frame_fault() is None
    assert injector.take_frame_fault() == "truncate"
    assert injector.take_frame_fault() is None
    assert injector.take_busy()
    assert not injector.take_busy()


def test_fault_plan_pickles():
    import pickle

    plan = FaultPlan(
        kill_workers=(KillWorker(0, 3),),
        delay_batches=(DelayBatch(2, 10.0),),
        frame_faults=(FrameFault(1, "drop"),),
        busy_once=(BusyOnce(4),),
    )
    assert pickle.loads(pickle.dumps(plan)) == plan


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        RetryPolicy(attempt_timeout_s=0.0)


def test_retry_backoff_is_deterministic_capped_exponential():
    policy = RetryPolicy(base_backoff_s=0.1, max_backoff_s=0.4, jitter=0.5)
    first = policy.backoff_s("req", 1)
    assert first == policy.backoff_s("req", 1)  # hashed, not drawn
    assert policy.backoff_s("other", 1) != first  # per-request jitter
    assert 0.1 <= first <= 0.15
    # Attempt 4 would be 0.8 uncapped; the cap bounds it (plus jitter).
    assert policy.backoff_s("req", 4) <= 0.4 * 1.5
    assert RetryPolicy(jitter=0.0, base_backoff_s=0.1).backoff_s(
        "req", 2
    ) == pytest.approx(0.2)


# ----------------------------------------------------------------------
# Deadlines (scheduler admission + DSP timeout) — all in-process
# ----------------------------------------------------------------------


def test_deadline_expires_before_admission_fails_closed():
    plan = FaultPlan(delay_batches=(DelayBatch(batch_index=0, delay_ms=150),))

    async def go():
        async with AuthService(fault_plan=plan) as service:
            messages = await collect(
                service, ranging_request(rounds=1, deadline_ms=20.0)
            )
            stats = service.stats_reply("s")
        return messages, stats

    messages, stats = run_async(go())
    assert len(messages) == 1
    (reply,) = messages
    assert isinstance(reply, ErrorReply)
    assert reply.code == "timeout" and reply.retriable
    assert stats.deadline_expired >= 1


def test_no_deadline_is_unaffected_by_batch_delay():
    plan = FaultPlan(delay_batches=(DelayBatch(batch_index=0, delay_ms=50),))
    expected = engine_outcomes(0.8, 2)

    async def go():
        async with AuthService(fault_plan=plan) as service:
            return await collect(service, ranging_request(rounds=2))

    messages = run_async(go())
    assert isinstance(messages[-1], RequestComplete)
    for decision, outcome in zip(messages[:-1], expected):
        assert_matches_outcome(decision, outcome)


def test_generous_deadline_decisions_match_unfaulted_run():
    expected = engine_outcomes(0.8, 2)

    async def go():
        async with AuthService() as service:
            return await collect(
                service, ranging_request(rounds=2, deadline_ms=60_000.0)
            )

    messages = run_async(go())
    assert isinstance(messages[-1], RequestComplete)
    for decision, outcome in zip(messages[:-1], expected):
        assert_matches_outcome(decision, outcome)


def test_wedged_dsp_pass_times_out_closed_and_marks_suspect():
    async def go():
        async with AuthService(dsp_timeout_s=0.05) as service:
            never = asyncio.get_running_loop().create_future()
            service.scheduler._submit_batch = lambda batch: never
            messages = await collect(service, ranging_request(rounds=1))
            stats = service.stats_reply("s")
        return messages, stats

    messages, stats = run_async(go())
    (reply,) = messages
    assert isinstance(reply, ErrorReply)
    assert reply.code == "timeout" and reply.retriable
    assert stats.dsp_timeouts == 1


def test_stop_after_dsp_timeout_keeps_the_loop_running():
    # The abandoned 1 s pass still holds the DSP thread when stop() waits
    # for it; a 10 ms ticker must keep running on the loop meanwhile.
    async def go():
        loop = asyncio.get_running_loop()
        async with AuthService(dsp_timeout_s=0.05) as service:
            scheduler = service.scheduler
            scheduler._submit_batch = lambda batch: loop.run_in_executor(
                scheduler._executor, time.sleep, 1.0
            )
            (reply,) = await collect(service, ranging_request(rounds=1))
            gaps: list[float] = []
            ticking = True

            async def tick():
                last = loop.time()
                while ticking:
                    await asyncio.sleep(0.01)
                    now = loop.time()
                    gaps.append(now - last)
                    last = now

            ticker = loop.create_task(tick())
            await asyncio.sleep(0.02)
            started = loop.time()
            await scheduler.stop()
            stop_s = loop.time() - started
            ticking = False
            await ticker
        return reply, stop_s, max(gaps)

    reply, stop_s, largest_gap_s = run_async(go())
    assert isinstance(reply, ErrorReply) and reply.code == "timeout"
    assert stop_s > 0.5  # stop() really waited for the abandoned pass
    assert largest_gap_s < 0.25


# ----------------------------------------------------------------------
# Busy-once + retry: idempotent by request id, byte-identical decisions
# ----------------------------------------------------------------------


def test_busy_once_then_retry_returns_identical_decisions():
    plan = FaultPlan(busy_once=(BusyOnce(request_index=0),))
    expected = engine_outcomes(0.8, 2)

    async def go():
        async with AuthService(fault_plan=plan) as service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with await AuthClient.connect("127.0.0.1", port) as client:
                served = await client.authenticate(
                    retry=RetryPolicy(attempts=3, base_backoff_s=0.01),
                    environment=ENV,
                    distance_m=0.8,
                    seed=SEED,
                    rounds=2,
                    threshold_m=2.0,
                )
            server.close()
            await server.wait_closed()
            return served

    served = run_async(go())
    assert served.attempts == 2
    assert served.complete is not None
    for decision, outcome in zip(served.rounds, expected):
        assert_matches_outcome(decision, outcome)


def test_busy_without_retry_budget_surfaces_with_attempts():
    plan = FaultPlan(busy_once=(BusyOnce(request_index=0),))

    async def go():
        async with AuthService(fault_plan=plan) as service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with await AuthClient.connect("127.0.0.1", port) as client:
                with pytest.raises(ServiceError) as info:
                    await client.authenticate(
                        environment=ENV,
                        distance_m=0.8,
                        seed=SEED,
                        rounds=1,
                        threshold_m=2.0,
                    )
            server.close()
            await server.wait_closed()
            return info.value

    error = run_async(go())
    assert error.code == "busy" and error.retriable
    assert error.attempts == 1


# ----------------------------------------------------------------------
# Lost / corrupted reply frames: attempt timeout + reconnect + retry
# ----------------------------------------------------------------------


def _frame_fault_recovery(mode: str, frame_index: int):
    plan = FaultPlan(frame_faults=(FrameFault(frame_index, mode=mode),))
    expected = engine_outcomes(0.8, 2)

    async def go():
        async with AuthService(fault_plan=plan) as service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with await AuthClient.connect("127.0.0.1", port) as client:
                served = await client.authenticate(
                    retry=RetryPolicy(
                        attempts=4,
                        base_backoff_s=0.01,
                        attempt_timeout_s=2.0,
                    ),
                    environment=ENV,
                    distance_m=0.8,
                    seed=SEED,
                    rounds=2,
                    threshold_m=2.0,
                )
                calibration = await client.calibrate(ENV)
            server.close()
            await server.wait_closed()
            return served, calibration

    served, calibration = run_async(go())
    assert served.attempts >= 2
    assert served.complete is not None and len(served.rounds) == 2
    for decision, outcome in zip(served.rounds, expected):
        assert_matches_outcome(decision, outcome)
    # Both attempts streamed the same rounds; each counts once.
    assert calibration.samples == sum(o.ok for o in expected) == 2


def test_dropped_terminal_frame_recovers_via_attempt_timeout():
    # Frame 2 is the request_complete of a 2-round request.  Dropping a
    # *non-terminal* frame would not stall the stream; dropping the
    # terminal one silently hangs the attempt, which only the
    # attempt_timeout_s backstop can catch.
    _frame_fault_recovery("drop", frame_index=2)


def test_truncated_reply_frame_recovers_via_reconnect():
    # Truncating the very first frame desynchronizes the client's read
    # loop (undecodable JSON), which must fail the attempt and redial.
    _frame_fault_recovery("truncate", frame_index=0)


# ----------------------------------------------------------------------
# Unexpected round exceptions: structured internal-error, stream alive
# ----------------------------------------------------------------------


def test_unexpected_round_exception_maps_to_internal_error(monkeypatch):
    import repro.service.server as server_module

    real_build = server_module.build_trial_session
    calls = {"n": 0}

    def flaky_build(spec, trial):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected stage failure")
        return real_build(spec, trial)

    monkeypatch.setattr(server_module, "build_trial_session", flaky_build)
    expected = engine_outcomes(0.8, 1)

    async def go():
        async with AuthService() as service:
            first = await collect(service, ranging_request(rounds=1))
            # The failure is per-request: the service (and any shared
            # connection) keeps serving, and the retry is unpoisoned.
            second = await collect(service, ranging_request(rounds=1))
        return first, second

    first, second = run_async(go())
    (reply,) = first
    assert isinstance(reply, ErrorReply)
    assert reply.code == "internal-error"
    assert not reply.retriable  # fail closed, no blind retry invitation
    assert isinstance(second[-1], RequestComplete)
    assert_matches_outcome(second[0], expected[0])


# ----------------------------------------------------------------------
# Single-process frame handling: malformed, oversized, partial frames
# ----------------------------------------------------------------------


async def _raw_exchange(port: int, payload: bytes) -> list[dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    replies = []
    while True:
        try:
            line = await asyncio.wait_for(reader.readline(), 5.0)
        except asyncio.TimeoutError:
            break
        if not line:
            break
        replies.append(json.loads(line))
        break  # one reply is all these exchanges expect
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return replies


def test_malformed_json_line_gets_bad_request():
    async def go():
        async with AuthService() as service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            replies = await _raw_exchange(port, b"this is not json\n")
            server.close()
            await server.wait_closed()
            return replies

    (reply,) = run_async(go())
    assert reply["type"] == "error" and reply["code"] == "bad-request"


def test_oversized_line_gets_bad_request_then_close():
    async def go():
        async with AuthService() as service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            # Default StreamReader limit is 64 KiB; blow well past it
            # without ever sending a newline.
            replies = await _raw_exchange(port, b"x" * (1 << 20))
            server.close()
            await server.wait_closed()
            return replies

    (reply,) = run_async(go())
    assert reply["type"] == "error" and reply["code"] == "bad-request"
    assert "line length" in reply["message"]


def test_partial_frame_then_disconnect_leaves_service_alive():
    expected = engine_outcomes(0.8, 1)

    async def go():
        async with AuthService() as service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            # Half a frame, no newline, hang up.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"type": "ranging_req')
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # The service must still answer a well-formed client.
            async with await AuthClient.connect("127.0.0.1", port) as client:
                served = await client.authenticate(
                    environment=ENV,
                    distance_m=0.8,
                    seed=SEED,
                    rounds=1,
                    threshold_m=2.0,
                )
            server.close()
            await server.wait_closed()
            return served

    served = run_async(go())
    assert served.complete is not None
    assert_matches_outcome(served.rounds[0], expected[0])


def test_interleaved_replies_on_one_multiplexed_connection():
    cells = [(0.8, SEED), (1.2, SEED + 1)]
    expected = {
        (distance, seed): engine_outcomes(distance, 2, seed=seed)
        for distance, seed in cells
    }

    async def go():
        async with AuthService() as service:
            server = await service.serve("127.0.0.1", 0)
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
            server.close()
            await server.wait_closed()
            return served

    served = run_async(go())
    for result, (distance, seed) in zip(served, cells):
        assert result.complete is not None and len(result.rounds) == 2
        for decision, outcome in zip(result.rounds, expected[(distance, seed)]):
            assert_matches_outcome(decision, outcome)


# ----------------------------------------------------------------------
# Sharded tier: SIGKILL → attributed errors → respawn → identical retry
# ----------------------------------------------------------------------


async def wait_for(predicate, timeout_s: float = 60.0) -> None:
    """Poll ``predicate`` until it holds; fail after ``timeout_s``."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.02)


def test_worker_kill_respawn_and_retry_byte_identical():
    """The full self-healing loop, plus router frame handling, in one
    worker-spawning test (spawns are expensive on this substrate)."""
    distance, seed = 0.8, SEED
    request = ranging_request(distance_m=distance, seed=seed, rounds=2)
    target = shard_for_session(session_key(request), 2)
    # An idle tier routes to the home shard: the first request completes
    # there, the second (the same rounds again) is killed with it.
    plan = FaultPlan(
        kill_workers=(KillWorker(shard=target, after_requests=2),)
    )
    expected = engine_outcomes(distance, 2, seed=seed)

    async def go():
        front = ShardedAuthServer(
            2,
            fault_plan=plan,
            respawn_backoff_s=0.05,
        )
        async with front:
            server = await front.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]

            # Router frame handling first (no worker involved).
            (reply,) = await _raw_exchange(port, b"not json either\n")
            assert reply["type"] == "error"
            assert reply["code"] == "bad-request"
            (reply,) = await _raw_exchange(port, b"y" * (1 << 20))
            assert reply["code"] == "bad-request"
            assert "line length" in reply["message"]

            fields = dict(
                environment=ENV,
                distance_m=distance,
                seed=seed,
                rounds=2,
                threshold_m=2.0,
            )
            async with await AuthClient.connect("127.0.0.1", port) as client:
                first = await client.authenticate(**fields)
                # The second forward SIGKILLs the target worker, so this
                # needs the healing loop: attributed unavailable error ->
                # backoff -> a retry on the live shard -> clean rerun.
                served = await client.authenticate(
                    retry=RetryPolicy(
                        attempts=6,
                        base_backoff_s=0.2,
                        max_backoff_s=2.0,
                        attempt_timeout_s=30.0,
                    ),
                    **fields,
                )
                owed = front.owed_rounds
                calibration = await client.calibrate(ENV)
            # Nothing waits for the dead slot any more; the supervisor
            # still brings it back.
            await wait_for(lambda: front.total_respawns >= 1)
            respawns = front.total_respawns
            server.close()
            await server.wait_closed()
            return first, served, owed, calibration, respawns

    first, served, owed, calibration, respawns = run_async(go())
    assert respawns == 1
    assert served.attempts >= 2
    assert owed == (0, 0)
    for result in (first, served):
        assert result.complete is not None and len(result.rounds) == 2
        for decision, outcome in zip(result.rounds, expected):
            assert_matches_outcome(decision, outcome)
    # The router calibrates once for the tier, and the rounds served
    # again after the kill count once.
    assert (calibration.shard, calibration.shards) == (0, 1)
    assert calibration.samples == sum(o.ok for o in expected) == 2


def test_router_handlers_survive_gc_after_the_client_hangs_up():
    """A router handler still waiting on a worker's reply after its client
    disconnected is reachable only from the router: a GC pass must not
    destroy it (and its pumps) mid-teardown, leaking their sockets."""
    cycles = 3
    # Each request's batch is held back, so the reply is still owed when
    # the client has gone and the collector runs.
    plan = FaultPlan(
        delay_batches=tuple(DelayBatch(index, 300.0) for index in range(cycles))
    )
    reports: list[str] = []

    async def go():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: reports.append(context["message"])
        )
        async with ShardedAuthServer(1, fault_plan=plan) as front:
            server = await front.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            for cycle in range(cycles):
                _, writer = await asyncio.open_connection("127.0.0.1", port)
                request = ranging_request(f"gc-{cycle}", rounds=1)
                writer.write((encode_message(request) + "\n").encode("utf-8"))
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.1)
                gc.collect()
            server.close()
            await server.wait_closed()

    run_async(go())
    gc.collect()
    assert "Task was destroyed but it is pending!" not in reports


def test_failed_start_kills_and_joins_spawned_workers(tmp_path):
    """Workers are not daemons: one left running after ``start()`` fails
    would block the interpreter's exit forever."""
    script = (
        "import asyncio, multiprocessing\n"
        "from repro.service.shard import ShardedAuthServer\n"
        "async def main():\n"
        "    try:\n"
        "        await ShardedAuthServer(2, ready_timeout=0.2).start()\n"
        "    except RuntimeError as error:\n"
        "        print('raised:', error)\n"
        "    print('children:', len(multiprocessing.active_children()))\n"
        "asyncio.run(main())\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    process = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin", "TMPDIR": str(tmp_path)},
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        # Take the surviving workers down with it.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        pytest.fail("the process did not exit after start() failed")
    assert process.returncode == 0, stderr
    assert "did not become ready within 0.2s" in stdout
    assert "children: 0" in stdout
    # The private socket directory went with the workers.
    assert list(tmp_path.iterdir()) == []
