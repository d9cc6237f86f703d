"""The asyncio authentication service driving the staged pipeline.

Request lifecycle (see ``docs/service.md`` for the full narrative):

1. a :class:`~repro.service.protocol.RangingRequest` arrives (over the
   newline-delimited-JSON TCP listener, or directly through
   :meth:`AuthService.handle_request` for in-process callers);
2. per round, the RNG-bound stages run on the request path —
   :func:`~repro.eval.engine.build_trial_session` (the *same*
   construction the CLI engine uses), then ``negotiate`` → ``schedule``
   → ``render_noise`` on the session's own RNG stream;
3. the round's deterministic DSP is submitted to the
   :class:`~repro.service.scheduler.BatchingScheduler`, which coalesces
   it with whatever other requests are in flight into one
   ``render_arrivals`` + ``detect_batch`` pass on the DSP thread, each
   capture on a DSP lane;
4. ``exchange`` runs back on the request path and returns the round's
   :class:`~repro.core.ranging.RangingOutcome`; :func:`round_decision`
   decides it against the request's τ, and the round's
   :class:`~repro.service.protocol.RoundDecision` streams to the caller
   immediately;
5. after the last round, the aggregate
   :class:`~repro.service.protocol.RequestComplete` (the PIANO
   grant/deny rule) terminates the stream.

Bit-identity: steps 2–4 execute the identical stage functions, in the
identical per-session RNG order, as a CLI trial — batching across
requests cannot change bits (pipeline invariant 2) — so a served
decision equals the same trial run by ``python -m repro`` exactly.
The mapping behind it — :func:`request_spec` (request → ``TrialSpec``),
:func:`round_decision` (outcome → wire) and :func:`aggregate_decision`
(the PIANO grant/deny rule over the streamed rounds) — lives here, with
the simulator imports it needs, so the wire layer
:mod:`repro.service.protocol` stays stdlib-only for the router and the
client.  Both decision functions state no rule of their own: they ask
:mod:`repro.core.decisions` whether a round is within τ and which deny
reason its status carries.

Lifecycle: :meth:`AuthService.begin_draining` flips the service into
drain mode — requests already streaming finish normally while new ones
are answered with a ``busy`` error — and :meth:`AuthService.drain` waits
for the in-flight work to empty, then stops the scheduler.  The CLI wires
this to SIGINT/SIGTERM so ``repro serve`` never drops an accepted
request on shutdown.  Operational telemetry travels over the same wire:
a :class:`~repro.service.protocol.StatsRequest` is answered (even while
draining) with the scheduler's cumulative counters, and a
:class:`~repro.service.protocol.CalibrateRequest` with the per-deployment
threshold calibration distilled from the round decisions this service
streamed (:mod:`repro.service.calibration`).
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator

from repro.acoustics.environment import get_environment
from repro.core.decisions import (
    DENY_REASONS,
    DenyReason,
    round_reason,
    within_threshold,
)
from repro.core.ranging import RangingOutcome, RangingStatus
from repro.eval.engine import TrialSpec, build_trial_session
from repro.sim.pipeline import exchange, negotiate, render_noise, schedule
from repro.service.calibration import CalibrationStore
from repro.service.protocol import (
    CalibrateRequest,
    ErrorReply,
    Message,
    ProtocolError,
    RangingRequest,
    RequestComplete,
    RoundDecision,
    StatsReply,
    StatsRequest,
    decode_message,
    encode_message,
)
from repro.service.faults import FaultInjector, FaultPlan
from repro.service.scheduler import (
    BatchingScheduler,
    DeadlineExceeded,
    ServiceOverloaded,
)
from repro.service.shard import session_key

__all__ = [
    "AuthService",
    "MAX_ROUNDS_PER_REQUEST",
    "request_spec",
    "round_decision",
    "aggregate_decision",
]

#: Upper bound on ``RangingRequest.rounds``: each round becomes an eager
#: task, so the field must not let one request allocate unbounded work.
#: Callers wanting more rounds slice the cell across requests with
#: ``first_trial`` (as the benchmark does).
MAX_ROUNDS_PER_REQUEST = 1024


# ----------------------------------------------------------------------
# Request → trial mapping and decision rules
# ----------------------------------------------------------------------


def request_spec(request: RangingRequest) -> TrialSpec:
    """The trial-engine cell a request addresses.

    ``TrialSpec.trial_seed`` does not depend on ``n_trials``, so the
    spec's trial count is presentation-only here; round ``i`` of the
    request is trial ``first_trial + i`` of this cell under the exact
    seed derivation the CLI engine uses.
    """
    return TrialSpec(
        environment=request.environment,
        distance_m=request.distance_m,
        n_trials=request.first_trial + request.rounds,
        seed=request.seed,
    )


def round_decision(
    request: RangingRequest,
    round_index: int,
    trial: int,
    outcome: RangingOutcome,
) -> RoundDecision:
    """Project one round's :class:`RangingOutcome` onto the wire.

    ``accepted`` is :func:`~repro.core.decisions.within_threshold` at the
    request's τ.
    """
    return RoundDecision(
        request_id=request.request_id,
        round_index=round_index,
        trial=trial,
        status=outcome.status.value,
        distance_m=outcome.distance_m,
        accepted=within_threshold(outcome, request.threshold_m),
        elapsed_s=outcome.elapsed_s,
        energy_j=outcome.energy_j,
    )


def aggregate_decision(
    request: RangingRequest, decisions: list[RoundDecision]
) -> RequestComplete:
    """Fold streamed rounds into the PIANO grant/deny rule.

    Mirrors :class:`~repro.core.piano.PianoAuthenticator`: rounds retry
    only on ⊥ (``signal_not_present``), so the first round with any other
    status decides, by its wire ``accepted`` flag and
    :func:`~repro.core.decisions.round_reason`.  If every round returned
    ⊥ (or no rounds ran), the request is denied with
    ``signal_not_present``.
    """
    for decision in decisions:
        status = RangingStatus(decision.status)
        if status is RangingStatus.SIGNAL_NOT_PRESENT:
            continue
        reason = round_reason(status, decision.accepted)
        return RequestComplete(
            request_id=request.request_id,
            granted=reason is DenyReason.NONE,
            reason=reason.value,
            decided_round=decision.round_index,
            rounds=len(decisions),
            distance_m=decision.distance_m,
        )
    return RequestComplete(
        request_id=request.request_id,
        granted=False,
        reason=DENY_REASONS[RangingStatus.SIGNAL_NOT_PRESENT].value,
        decided_round=None,
        rounds=len(decisions),
        distance_m=None,
    )


def _validate(request: RangingRequest) -> str | None:
    """A human-readable problem with ``request``, or ``None`` if valid.

    Also re-checks scalar types: the wire codec already enforces them,
    but in-process callers construct :class:`RangingRequest` directly.
    """
    if not isinstance(request.request_id, str) or not request.request_id:
        return "request_id must be a non-empty string"
    if not isinstance(request.environment, str):
        return "environment must be a string"
    for name in ("rounds", "first_trial", "seed"):
        value = getattr(request, name)
        if not isinstance(value, int) or isinstance(value, bool):
            return f"{name} must be an integer, got {value!r}"
    for name in ("distance_m", "threshold_m", "deadline_ms"):
        value = getattr(request, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return f"{name} must be a number, got {value!r}"
    if request.deadline_ms < 0:
        return f"deadline_ms must be >= 0, got {request.deadline_ms}"
    if request.rounds < 1:
        return f"rounds must be >= 1, got {request.rounds}"
    if request.rounds > MAX_ROUNDS_PER_REQUEST:
        return (
            f"rounds must be <= {MAX_ROUNDS_PER_REQUEST} per request "
            f"(slice the cell with first_trial), got {request.rounds}"
        )
    if request.first_trial < 0:
        return f"first_trial must be >= 0, got {request.first_trial}"
    if not request.distance_m > 0:
        return f"distance_m must be positive, got {request.distance_m}"
    if not request.threshold_m > 0:
        return f"threshold_m must be positive, got {request.threshold_m}"
    try:
        get_environment(request.environment)
    except KeyError:
        return f"unknown environment {request.environment!r}"
    return None


class AuthService:
    """Streaming proximity-authentication service over the staged pipeline.

    Parameters
    ----------
    shard_index / shard_count:
        This server's position in the sharded front tier, echoed in
        :class:`~repro.service.protocol.StatsReply` messages.  The
        single-process server is shard 0 of 1.
    max_inflight_rounds:
        Memory backpressure: max rounds being *prepared or detected* at
        once.  A prepared round pins several MB of noise beds and
        arrival plans until its DSP pass completes, so unbounded eager
        execution under high concurrency trades throughput for memory
        pressure; excess rounds wait their turn, without bound (they
        are not rejected).  Only a round holding a slot joins the DSP
        queue, so this gate also bounds the queue.
    dsp_timeout_s:
        Upper bound on one DSP pass (see
        :class:`BatchingScheduler`); a pass over budget fails its rounds
        closed with a ``timeout`` error and marks the executor suspect.
        ``None`` (default) disables the timeout.
    fault_plan:
        Optional deterministic :class:`~repro.service.faults.FaultPlan`
        for tests and the chaos smoke.  The service wraps it in its own
        per-process :class:`~repro.service.faults.FaultInjector` and
        consumes the batch-delay, frame, and busy-once fault kinds;
        ``None`` (and an empty plan) injects nothing.

    Use as an async context manager (starts/stops the scheduler), or
    call :meth:`handle_request` directly — the scheduler lazily starts on
    first use, but only ``async with`` guarantees executor shutdown.
    """

    def __init__(
        self,
        *,
        shard_index: int = 0,
        shard_count: int = 1,
        max_inflight_rounds: int = 32,
        dsp_timeout_s: float | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.faults: FaultInjector | None = None
        if fault_plan is not None and not fault_plan.empty:
            self.faults = FaultInjector(fault_plan)
        self.scheduler = BatchingScheduler(
            dsp_timeout_s=dsp_timeout_s, faults=self.faults
        )
        if max_inflight_rounds < 1:
            raise ValueError(
                f"max_inflight_rounds must be >= 1, got {max_inflight_rounds!r}"
            )
        self._round_gate = asyncio.Semaphore(max_inflight_rounds)
        self.calibration = CalibrationStore()
        self.shard_index = shard_index
        self.shard_count = shard_count
        self._draining = False
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()

    @property
    def draining(self) -> bool:
        """Whether the service is refusing new requests (shutdown path)."""
        return self._draining

    def begin_draining(self) -> None:
        """Stop accepting new requests; in-flight streams keep running.

        From this point every new :meth:`handle_request` answers with a
        ``busy`` error (the same retry-later signal backpressure uses),
        while requests already streaming run to completion.  Idempotent.
        """
        self._draining = True

    async def drain(self) -> None:
        """Wait for in-flight requests to finish, then stop the scheduler.

        Calls :meth:`begin_draining` first, so it is safe as the only
        shutdown call.  Returns once every accepted request has streamed
        its final message and the DSP executor is shut down.
        """
        self.begin_draining()
        await self._idle.wait()
        await self.scheduler.stop()

    async def __aenter__(self) -> "AuthService":
        await self.scheduler.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.scheduler.stop()

    # ------------------------------------------------------------------
    # Request handling (transport-independent)
    # ------------------------------------------------------------------

    async def handle_request(
        self, request: RangingRequest
    ) -> AsyncIterator[Message]:
        """Serve one request, yielding the reply stream in order.

        Yields ``rounds`` :class:`RoundDecision` messages (each as soon
        as its round completes) followed by one :class:`RequestComplete`
        — or an :class:`ErrorReply` terminating the stream early.
        """
        problem = _validate(request)
        if problem is not None:
            yield ErrorReply(
                request_id=request.request_id,
                code="bad-request",
                message=problem,
            )
            return
        if self._draining:
            yield ErrorReply(
                request_id=request.request_id,
                code="busy",
                message="service is draining for shutdown; retry elsewhere",
            )
            return
        if self.faults is not None and self.faults.take_busy():
            # Injected backpressure bounce: the same retry-later reply a
            # draining service sends — nothing was executed.
            yield ErrorReply(
                request_id=request.request_id,
                code="busy",
                message="injected busy (fault plan)",
            )
            return
        self._active_requests += 1
        self._idle.clear()
        try:
            await self.scheduler.start()

            # Rounds are independent trials (each on its own world and
            # RNG stream), so they execute eagerly in parallel: every
            # round's RNG stages run as soon as the loop is free and its
            # DSP joins the next DSP pass — a request's rounds
            # typically share one pass.  Decisions still stream strictly
            # in round order.
            spec = request_spec(request)
            loop = asyncio.get_running_loop()
            expires_at = (
                loop.time() + request.deadline_ms / 1000.0
                if request.deadline_ms > 0
                else None
            )
            self.scheduler.announce(request.rounds)
            tasks = [
                loop.create_task(
                    self._run_round(
                        spec, request.first_trial + index, expires_at
                    )
                )
                for index in range(request.rounds)
            ]
            decisions = []
            try:
                for index, task in enumerate(tasks):
                    try:
                        outcome = await task
                    except ServiceOverloaded as error:
                        yield ErrorReply(
                            request_id=request.request_id,
                            code="busy",
                            message=str(error),
                        )
                        return
                    except DeadlineExceeded as error:
                        yield ErrorReply(
                            request_id=request.request_id,
                            code="timeout",
                            message=str(error),
                        )
                        return
                    except asyncio.CancelledError:
                        raise
                    except Exception as error:
                        # Fail closed: an unexpected round failure is a
                        # structured deny, never a grant — and never a
                        # torn-down stream.
                        yield ErrorReply(
                            request_id=request.request_id,
                            code="internal-error",
                            message=f"round failed: {error!r}",
                        )
                        return
                    decision = round_decision(
                        request, index, request.first_trial + index, outcome
                    )
                    if outcome.ok:
                        # Free calibration evidence: on the simulated
                        # substrate the request carries the true distance,
                        # so the round's signed ranging error is
                        # observable — the same float the sharded router
                        # records from the forwarded decision.
                        self.calibration.record(
                            request.environment,
                            decision.distance_m - request.distance_m,
                            key=(session_key(request), decision.trial),
                        )
                    decisions.append(decision)
                    yield decision
            finally:
                pending = [task for task in tasks if not task.done()]
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
                # Reap exceptions of rounds completed after an early exit.
                for task in tasks:
                    if task.done() and not task.cancelled():
                        task.exception()
            yield aggregate_decision(request, decisions)
        finally:
            self._active_requests -= 1
            if self._active_requests == 0:
                self._idle.set()

    def stats_reply(self, request_id: str) -> StatsReply:
        """This shard's cumulative scheduler statistics as a wire message."""
        stats = self.scheduler.stats
        return StatsReply(
            request_id=request_id,
            shard=self.shard_index,
            shards=self.shard_count,
            rounds=stats.rounds,
            batches=stats.batches,
            largest_batch=stats.largest_batch,
            queue_high_water=stats.queue_high_water,
            linger_wait_s=stats.linger_wait_s,
            batch_histogram=stats.histogram_text(),
            deadline_expired=stats.deadline_expired,
            dsp_timeouts=stats.dsp_timeouts,
        )

    async def _run_round(
        self,
        spec: TrialSpec,
        trial: int,
        expires_at: float | None = None,
    ) -> RangingOutcome:
        """One ranging round: RNG stages inline, DSP via the scheduler.

        Consumes exactly one announced-round slot, whichever way it
        exits (Bluetooth failure, a stopped scheduler, deadline expiry,
        cancellation).  ``expires_at`` is checked before the RNG stages
        start and again at batch admission — never mid-computation.
        """
        submitted = False
        try:
            async with self._round_gate:
                if (
                    expires_at is not None
                    and asyncio.get_running_loop().time() >= expires_at
                ):
                    self.scheduler.stats.deadline_expired += 1
                    raise DeadlineExceeded(
                        "deadline expired before round start"
                    )
                session = build_trial_session(spec, trial)
                ctx, rng = session.context, session.rng
                negotiation = negotiate(ctx, rng)
                if negotiation.failure is not None:
                    return negotiation.failure
                plan = schedule(ctx, negotiation, rng)
                planned = render_noise(ctx, plan, rng)
                submitted = True
                recordings, detections = await self.scheduler.run_round(
                    ctx, negotiation, planned, announced=True,
                    expires_at=expires_at,
                )
                session.artifacts.recording_auth = recordings.auth
                session.artifacts.recording_vouch = recordings.vouch
                return exchange(
                    ctx, negotiation, detections, rng, session.artifacts
                )
        finally:
            if not submitted:
                self.scheduler.retract(1)

    # ------------------------------------------------------------------
    # TCP transport: newline-delimited JSON
    # ------------------------------------------------------------------

    async def serve(
        self, host: str = "127.0.0.1", port: int = 8765
    ) -> asyncio.AbstractServer:
        """Start the JSON-lines TCP listener; returns the asyncio server.

        Each connection may pipeline any number of requests; replies are
        interleaved as rounds complete and correlated by ``request_id``.
        """
        return await asyncio.start_server(self._handle_connection, host, port)

    async def serve_unix(self, path: str) -> asyncio.AbstractServer:
        """Start the same JSON-lines listener on a unix-domain socket.

        This is the shard-worker transport: the sharded front tier
        (:mod:`repro.service.shard`) runs one :class:`AuthService` per
        worker process behind a unix socket and forwards client lines to
        it verbatim.
        """
        return await asyncio.start_unix_server(self._handle_connection, path)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Frame longer than the stream limit: the buffer is
                    # desynchronized, so answer once and hang up rather
                    # than misparse the remainder as new frames.
                    await self._send(
                        writer,
                        write_lock,
                        ErrorReply(
                            "",
                            "bad-request",
                            "frame exceeds maximum line length",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_message(line)
                except ProtocolError as error:
                    await self._send(
                        writer,
                        write_lock,
                        ErrorReply("", "bad-request", str(error)),
                    )
                    continue
                if isinstance(message, StatsRequest):
                    await self._send(
                        writer, write_lock, self.stats_reply(message.request_id)
                    )
                    continue
                if isinstance(message, CalibrateRequest):
                    await self._send(
                        writer, write_lock, self.calibration.reply(message)
                    )
                    continue
                if not isinstance(message, RangingRequest):
                    await self._send(
                        writer,
                        write_lock,
                        ErrorReply(
                            getattr(message, "request_id", ""),
                            "bad-request",
                            "only ranging_request messages are accepted",
                        ),
                    )
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._serve_request(message, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown (process exiting after a drain): fall
            # through to cleanup instead of logging a cancelled handler.
            pass
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_request(
        self,
        request: RangingRequest,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            async for message in self.handle_request(request):
                await self._send(writer, write_lock, message)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            raise
        except Exception as error:  # pragma: no cover - defensive
            try:
                await self._send(
                    writer,
                    write_lock,
                    ErrorReply(
                        request.request_id, "internal-error", repr(error)
                    ),
                )
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        message: Message,
    ) -> None:
        data = (encode_message(message) + "\n").encode("utf-8")
        if self.faults is not None:
            mode = self.faults.take_frame_fault()
            if mode == "drop":
                return
            if mode == "truncate":
                data = data[: len(data) // 2] + b"\n"
        async with write_lock:
            writer.write(data)
            await writer.drain()
