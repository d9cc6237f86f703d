"""The streaming authentication service (`repro.service`).

Covers the three contracts of ``docs/service.md``:

* **determinism** — decisions served through the service (direct API and
  TCP, serial and concurrent) are bit-identical to the same trials run
  by the CLI engine's ``run_cell_spec``;
* **codec** — every protocol message round-trips through the JSON wire
  encoding, and malformed input fails loudly;
* **backpressure** — a round the scheduler could not run (it stopped)
  surfaces as a ``busy`` error, and abandoned rounds cost no DSP pass.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.ranging import RangingOutcome
from repro.eval.engine import TrialSpec, build_trial_session, run_cell_spec
from repro.service import (
    AuthClient,
    AuthService,
    BatchingScheduler,
    ErrorReply,
    ProtocolError,
    RangingRequest,
    RequestComplete,
    RoundDecision,
    ServiceError,
    ServiceOverloaded,
    aggregate_decision,
    decode_message,
    encode_message,
)
from repro.sim.pipeline import negotiate, render_noise, schedule

# Small, fast cells: quiet_lab keeps detection easy and stable.
ENV = "quiet_lab"
SEED = 3


def run_async(coro):
    return asyncio.run(coro)


async def collect(service: AuthService, request: RangingRequest):
    return [message async for message in service.handle_request(request)]


def engine_outcomes(distance_m: float, n_trials: int) -> list[RangingOutcome]:
    spec = TrialSpec(
        environment=ENV, distance_m=distance_m, n_trials=n_trials, seed=SEED
    )
    return run_cell_spec(spec).outcomes


def assert_matches_outcome(decision: RoundDecision, outcome: RangingOutcome):
    """The wire decision must carry the outcome's exact bits."""
    assert decision.status == outcome.status.value
    assert decision.distance_m == outcome.distance_m
    assert decision.elapsed_s == outcome.elapsed_s
    assert decision.energy_j == outcome.energy_j


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------

SAMPLE_MESSAGES = [
    RangingRequest(
        request_id="r-1",
        environment="office",
        distance_m=0.8,
        seed=42,
        rounds=3,
        first_trial=2,
        threshold_m=1.5,
    ),
    RoundDecision(
        request_id="r-1",
        round_index=0,
        trial=2,
        status="ok",
        distance_m=0.8166666666666733,
        accepted=True,
        elapsed_s=3.170737113265723,
        energy_j=2.021734421865142,
    ),
    RoundDecision(
        request_id="r-2",
        round_index=1,
        trial=0,
        status="signal_not_present",
        distance_m=None,
        accepted=False,
        elapsed_s=3.2,
        energy_j=2.0,
    ),
    RequestComplete(
        request_id="r-1",
        granted=True,
        reason="none",
        decided_round=0,
        rounds=3,
        distance_m=0.8166666666666733,
    ),
    RequestComplete(
        request_id="r-3",
        granted=False,
        reason="signal_not_present",
        decided_round=None,
        rounds=2,
        distance_m=None,
    ),
    ErrorReply(request_id="r-9", code="busy", message="scheduler stopped"),
]


@pytest.mark.parametrize(
    "message", SAMPLE_MESSAGES, ids=lambda m: type(m).__name__
)
def test_codec_round_trip(message):
    line = encode_message(message)
    assert "\n" not in line, "wire encoding must be single-line"
    assert decode_message(line) == message
    assert decode_message(line.encode("utf-8")) == message


def test_codec_floats_round_trip_exactly():
    # JSON serializes shortest-repr floats; parsing returns the same
    # IEEE double — the wire layer preserves decision bits.
    value = 0.1 + 0.2  # a float with a long mantissa
    decision = SAMPLE_MESSAGES[1]
    wired = decode_message(
        encode_message(
            RoundDecision(
                request_id="x",
                round_index=0,
                trial=0,
                status="ok",
                distance_m=value,
                accepted=True,
                elapsed_s=value * 3,
                energy_j=value / 3,
            )
        )
    )
    assert wired.distance_m == value
    assert wired.elapsed_s == value * 3
    assert wired.energy_j == value / 3
    assert decode_message(encode_message(decision)) == decision


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        "[]",
        '{"no_type": 1}',
        '{"type": "warp_drive"}',
        '{"type": "error", "request_id": "x"}',  # missing fields
        (
            '{"type": "error", "request_id": "x", "code": "busy", '
            '"message": "m", "extra": 1}'
        ),
    ],
)
def test_codec_rejects_malformed(line):
    with pytest.raises(ProtocolError):
        decode_message(line)


@pytest.mark.parametrize(
    "field, value",
    [
        ("rounds", "2"),
        ("rounds", 2.5),
        ("rounds", True),
        ("distance_m", "0.8"),
        ("threshold_m", None),
        ("request_id", 7),
        ("seed", "0"),
    ],
)
def test_codec_rejects_mistyped_scalars(field, value):
    import json

    payload = {
        "type": "ranging_request",
        "request_id": "r",
        "environment": "office",
        "distance_m": 0.8,
        "seed": 0,
        "rounds": 2,
        "first_trial": 0,
        "threshold_m": 1.0,
        "deadline_ms": 0.0,
        field: value,
    }
    with pytest.raises(ProtocolError, match=field):
        decode_message(json.dumps(payload))


def test_codec_accepts_int_for_float_fields():
    import json

    payload = {
        "type": "ranging_request",
        "request_id": "r",
        "environment": "office",
        "distance_m": 1,  # JSON cannot distinguish 1 from 1.0
        "seed": 0,
        "rounds": 1,
        "first_trial": 0,
        "threshold_m": 2,
        "deadline_ms": 0,  # ints accepted (and upcast) here too
    }
    message = decode_message(json.dumps(payload))
    assert message.distance_m == 1.0 and isinstance(message.distance_m, float)
    assert message.threshold_m == 2.0 and isinstance(
        message.threshold_m, float
    )
    assert message.deadline_ms == 0.0 and isinstance(
        message.deadline_ms, float
    )


def test_codec_rejects_non_wire_object():
    with pytest.raises(ProtocolError):
        encode_message(object())  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Aggregate decision rule
# ----------------------------------------------------------------------


def _decision(status: str, accepted: bool, index: int) -> RoundDecision:
    return RoundDecision(
        request_id="r",
        round_index=index,
        trial=index,
        status=status,
        distance_m=0.5 if status == "ok" else None,
        accepted=accepted,
        elapsed_s=3.0,
        energy_j=2.0,
    )


def test_aggregate_all_not_present_denies():
    request = RangingRequest(request_id="r", rounds=2)
    complete = aggregate_decision(
        request,
        [
            _decision("signal_not_present", False, 0),
            _decision("signal_not_present", False, 1),
        ],
    )
    assert not complete.granted
    assert complete.reason == "signal_not_present"
    assert complete.decided_round is None


def test_aggregate_retries_only_on_bottom():
    request = RangingRequest(request_id="r", rounds=3)
    complete = aggregate_decision(
        request,
        [
            _decision("signal_not_present", False, 0),
            _decision("ok", True, 1),
            _decision("ok", False, 2),  # later rounds cannot override
        ],
    )
    assert complete.granted
    assert complete.decided_round == 1


def test_aggregate_first_completed_round_decides():
    request = RangingRequest(request_id="r", rounds=2)
    complete = aggregate_decision(
        request,
        [_decision("ok", False, 0), _decision("ok", True, 1)],
    )
    assert not complete.granted
    assert complete.reason == "distance_exceeds_threshold"
    assert complete.decided_round == 0


def test_aggregate_bluetooth_failure_denies():
    request = RangingRequest(request_id="r", rounds=1)
    complete = aggregate_decision(
        request, [_decision("bluetooth_unavailable", False, 0)]
    )
    assert not complete.granted
    assert complete.reason == "out_of_bluetooth_range"


# ----------------------------------------------------------------------
# Served decisions are bit-identical to CLI engine trials
# ----------------------------------------------------------------------


def test_single_request_matches_engine_cell():
    outcomes = engine_outcomes(0.8, 3)

    async def go():
        async with AuthService() as service:
            return await collect(
                service,
                RangingRequest(
                    request_id="r",
                    environment=ENV,
                    distance_m=0.8,
                    seed=SEED,
                    rounds=3,
                ),
            )

    messages = run_async(go())
    assert len(messages) == 4
    for index, (decision, outcome) in enumerate(zip(messages[:3], outcomes)):
        assert isinstance(decision, RoundDecision)
        assert decision.round_index == index
        assert decision.trial == index
        assert_matches_outcome(decision, outcome)
    assert isinstance(messages[3], RequestComplete)


def test_concurrent_requests_match_serial_engine_cells():
    """N concurrent requests == their serial CLI cells, bit for bit."""
    distances = [0.5, 0.8, 1.1, 1.4]
    rounds = 2
    serial = {d: engine_outcomes(d, rounds) for d in distances}

    async def go():
        async with AuthService() as service:
            requests = [
                RangingRequest(
                    request_id=f"c{i}",
                    environment=ENV,
                    distance_m=distance,
                    seed=SEED,
                    rounds=rounds,
                )
                for i, distance in enumerate(distances)
            ]
            results = await asyncio.gather(
                *(collect(service, request) for request in requests)
            )
            return results, service.scheduler.stats

    results, stats = run_async(go())
    for distance, messages in zip(distances, results):
        assert len(messages) == rounds + 1
        for decision, outcome in zip(messages[:rounds], serial[distance]):
            assert_matches_outcome(decision, outcome)
    # The requests were in flight together: stacked passes must have
    # actually coalesced rounds across requests.
    assert stats.largest_batch > 1, stats


def test_first_trial_addresses_cell_slice():
    outcomes = engine_outcomes(0.8, 4)

    async def go():
        async with AuthService() as service:
            return await collect(
                service,
                RangingRequest(
                    request_id="slice",
                    environment=ENV,
                    distance_m=0.8,
                    seed=SEED,
                    rounds=2,
                    first_trial=2,
                ),
            )

    messages = run_async(go())
    assert [m.trial for m in messages[:2]] == [2, 3]
    assert_matches_outcome(messages[0], outcomes[2])
    assert_matches_outcome(messages[1], outcomes[3])


def test_tcp_round_trip_matches_engine_and_streams_in_order():
    outcomes = engine_outcomes(0.8, 2)

    async def go():
        async with AuthService() as service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with await AuthClient.connect("127.0.0.1", port) as client:
                streams = await asyncio.gather(
                    *(
                        client.authenticate(
                            environment=ENV,
                            distance_m=0.8,
                            seed=SEED,
                            rounds=2,
                        )
                        for _ in range(3)
                    )
                )
            server.close()
            await server.wait_closed()
            return streams

    for served in run_async(go()):
        assert served.complete is not None
        assert [r.round_index for r in served.rounds] == [0, 1]
        for decision, outcome in zip(served.rounds, outcomes):
            assert_matches_outcome(decision, outcome)


# ----------------------------------------------------------------------
# Validation and backpressure
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad_fields",
    [
        {"environment": "atlantis"},
        {"rounds": 0},
        {"rounds": 10_000_000},  # above MAX_ROUNDS_PER_REQUEST
        {"rounds": "2"},  # in-process callers can mistype too
        {"distance_m": -1.0},
        {"distance_m": "close"},
        {"threshold_m": 0.0},
        {"deadline_ms": -5.0},
        {"deadline_ms": "soon"},
        {"first_trial": -1},
        {"request_id": ""},
    ],
    ids=lambda fields: f"{next(iter(fields))}={next(iter(fields.values()))!r}",
)
def test_invalid_requests_get_bad_request(bad_fields):
    fields = {"request_id": "r", "environment": ENV, **bad_fields}

    async def go():
        async with AuthService() as service:
            return await collect(service, RangingRequest(**fields))

    messages = run_async(go())
    assert len(messages) == 1
    assert isinstance(messages[0], ErrorReply)
    assert messages[0].code == "bad-request"
    assert messages[0].request_id == fields["request_id"]


def test_service_surfaces_busy_error(monkeypatch):
    async def go():
        service = AuthService()

        async def overloaded(*args, **kwargs):
            raise ServiceOverloaded("scheduler stopped (test)")

        monkeypatch.setattr(service.scheduler, "run_round", overloaded)
        async with service:
            return await collect(
                service,
                RangingRequest(
                    request_id="r", environment=ENV, distance_m=0.8
                ),
            )

    messages = run_async(go())
    assert len(messages) == 1
    assert isinstance(messages[0], ErrorReply)
    assert messages[0].code == "busy"


def test_tcp_malformed_line_gets_error_reply():
    async def go():
        async with AuthService() as service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=10)
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            return decode_message(line)

    reply = run_async(go())
    assert isinstance(reply, ErrorReply)
    assert reply.code == "bad-request"


def test_client_raises_service_error_on_bad_request():
    async def go():
        async with AuthService() as service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with await AuthClient.connect("127.0.0.1", port) as client:
                with pytest.raises(ServiceError) as info:
                    async for _ in client.request(environment="atlantis"):
                        pass
            server.close()
            await server.wait_closed()
            return info.value

    error = run_async(go())
    assert error.code == "bad-request"


def test_authenticate_records_the_sent_request_id():
    async def go():
        async with AuthService() as service:
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with await AuthClient.connect("127.0.0.1", port) as client:
                served = await client.authenticate(
                    environment=ENV, distance_m=0.8, seed=SEED
                )
            server.close()
            await server.wait_closed()
            return served

    served = run_async(go())
    assert served.request.request_id
    assert served.complete.request_id == served.request.request_id
    assert all(
        decision.request_id == served.request.request_id
        for decision in served.rounds
    )


def test_abandoned_rounds_are_not_executed():
    """Rounds whose request died never cost a stacked DSP pass."""
    spec = TrialSpec(environment=ENV, distance_m=0.8, n_trials=2, seed=SEED)

    def prepare(trial):
        session = build_trial_session(spec, trial)
        ctx, rng = session.context, session.rng
        negotiation = negotiate(ctx, rng)
        plan = schedule(ctx, negotiation, rng)
        return ctx, negotiation, render_noise(ctx, plan, rng)

    async def go():
        scheduler = BatchingScheduler()
        loop = asyncio.get_running_loop()
        dead = loop.create_task(scheduler.run_round(*prepare(0)))
        live = loop.create_task(scheduler.run_round(*prepare(1)))
        await asyncio.sleep(0)  # both queued; collector not started yet
        dead.cancel()
        await asyncio.gather(dead, return_exceptions=True)
        await scheduler.start()
        await live
        await scheduler.stop()
        return scheduler.stats

    stats = run_async(go())
    assert stats.rounds == 1, stats  # the cancelled round was skipped


def test_scheduler_stop_fails_queued_rounds():
    async def go():
        scheduler = BatchingScheduler()
        spec = TrialSpec(
            environment=ENV, distance_m=0.8, n_trials=1, seed=SEED
        )
        session = build_trial_session(spec, 0)
        ctx, rng = session.context, session.rng
        negotiation = negotiate(ctx, rng)
        plan = schedule(ctx, negotiation, rng)
        planned = render_noise(ctx, plan, rng)
        task = asyncio.get_running_loop().create_task(
            scheduler.run_round(ctx, negotiation, planned)
        )
        await asyncio.sleep(0)
        await scheduler.stop()  # never started: the queued round must fail
        with pytest.raises(ServiceOverloaded):
            await task

    run_async(go())
