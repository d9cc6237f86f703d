"""Async client for the streaming authentication service.

One :class:`AuthClient` wraps one JSON-lines TCP connection and supports
any number of **concurrent** requests over it: a single reader task
routes every incoming message to its request by ``request_id``, so
callers simply iterate their own stream:

    async with await AuthClient.connect(host, port) as client:
        async for message in client.request(distance_m=0.8, rounds=3):
            ...   # RoundDecision ×3, then RequestComplete

or collect the whole exchange in one await:

    served = await client.authenticate(distance_m=0.8, rounds=3)
    served.granted, served.rounds, served.complete

Retries: :meth:`AuthClient.authenticate` takes a :class:`RetryPolicy`
and transparently re-issues the request on *retriable* failures —
``busy``/``timeout``/``unavailable`` error replies, connection loss, a
desynchronized reply stream, or a per-attempt timeout (which is what a
lost reply frame looks like from here).  The retry reuses the same
request id: the service derives every decision deterministically from
``(session, trial)``, so a re-execution returns byte-identical decisions
on whichever shard worker it lands — retrying is idempotent by
construction.  Backoff is capped-exponential with *deterministic*
jitter (hashed from ``request_id:attempt``), so tests and chaos runs
replay exactly.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import os
from dataclasses import dataclass, field
from typing import AsyncIterator, Awaitable, Callable

from repro.service.protocol import (
    CalibrateReply,
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

__all__ = [
    "AuthClient",
    "RetryPolicy",
    "ServedAuthentication",
    "ServiceError",
]


class ServiceError(RuntimeError):
    """The server answered with an :class:`ErrorReply`.

    ``attempts`` is stamped on the instance by the retrying
    :meth:`AuthClient.authenticate` before the final raise.
    """

    def __init__(self, reply: ErrorReply) -> None:
        super().__init__(f"[{reply.code}] {reply.message}")
        self.reply = reply

    @property
    def code(self) -> str:
        return self.reply.code

    @property
    def retriable(self) -> bool:
        return self.reply.retriable


@dataclass(frozen=True)
class RetryPolicy:
    """Client retry budget: capped exponential backoff, deterministic jitter.

    Attempt ``N`` (1-based) that fails retriably sleeps
    ``min(base_backoff_s * 2**(N-1), max_backoff_s)`` scaled by up to
    ``jitter`` — the jitter fraction is hashed from
    ``"request_id:attempt"``, not drawn from an RNG, so identical runs
    back off identically (determinism survives the failure path).

    ``attempt_timeout_s`` bounds one attempt end-to-end.  It is the only
    defense that catches a *silently lost* reply frame (nothing arrives,
    so no error does either): the attempt times out, the retry re-issues
    the request, and idempotency-by-request-id makes that safe.
    ``None`` disables the per-attempt bound.
    """

    attempts: int = 4
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    jitter: float = 0.5
    attempt_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts!r}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff values must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter!r}")
        if self.attempt_timeout_s is not None and self.attempt_timeout_s <= 0:
            raise ValueError(
                f"attempt_timeout_s must be > 0, got {self.attempt_timeout_s!r}"
            )

    def backoff_s(self, request_id: str, attempt: int) -> float:
        """Seconds to sleep after failed attempt ``attempt`` (1-based)."""
        base = min(
            self.base_backoff_s * 2 ** (attempt - 1), self.max_backoff_s
        )
        if self.jitter <= 0 or base <= 0:
            return base
        digest = hashlib.blake2b(
            f"{request_id}:{attempt}".encode("utf-8"), digest_size=8
        ).digest()
        fraction = int.from_bytes(digest, "big") / 2.0**64
        return base * (1.0 + self.jitter * fraction)


@dataclass
class ServedAuthentication:
    """Everything one request streamed back, collected."""

    request: RangingRequest
    rounds: list[RoundDecision] = field(default_factory=list)
    complete: RequestComplete | None = None
    #: How many attempts :meth:`AuthClient.authenticate` spent (1 = no
    #: retry was needed).
    attempts: int = 1

    @property
    def granted(self) -> bool:
        return self.complete is not None and self.complete.granted


class AuthClient:
    """One connection to an :class:`~repro.service.AuthService` listener."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        reconnect: Callable[
            [], Awaitable[tuple[asyncio.StreamReader, asyncio.StreamWriter]]
        ]
        | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        #: Re-dials the same endpoint after connection loss; installed by
        #: the ``connect*`` constructors.  Without it a broken client
        #: stays broken (retries surface the connection error).
        self._reconnect_factory = reconnect
        self._pending: dict[str, asyncio.Queue[Message]] = {}
        self._ids = itertools.count()
        self._id_prefix = f"c{os.getpid():x}"
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(cls, host: str, port: int) -> "AuthClient":
        reader, writer = await asyncio.open_connection(host, port)

        async def redial():
            return await asyncio.open_connection(host, port)

        return cls(reader, writer, reconnect=redial)

    @classmethod
    async def connect_unix(cls, path: str) -> "AuthClient":
        """Connect to a unix-domain-socket listener (a shard worker)."""
        reader, writer = await asyncio.open_unix_connection(path)

        async def redial():
            return await asyncio.open_unix_connection(path)

        return cls(reader, writer, reconnect=redial)

    async def __aenter__(self) -> "AuthClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def _next_request_id(self) -> str:
        return f"{self._id_prefix}-{next(self._ids)}"

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # ------------------------------------------------------------------

    async def request(
        self,
        *,
        environment: str = "office",
        distance_m: float = 1.0,
        seed: int = 0,
        rounds: int = 1,
        first_trial: int = 0,
        threshold_m: float = 1.0,
        deadline_ms: float = 0.0,
        request_id: str | None = None,
    ) -> AsyncIterator[Message]:
        """Send one request; yield its replies as the server streams them.

        The iterator ends after :class:`RequestComplete`; an
        :class:`ErrorReply` raises :class:`ServiceError` instead.
        ``deadline_ms`` > 0 asks the server to fail the request closed
        (a ``timeout`` error, never a grant) rather than start rounds
        after that budget.
        """
        if request_id is None:
            request_id = self._next_request_id()
        if request_id in self._pending:
            raise ValueError(f"request id {request_id!r} already in flight")
        message = RangingRequest(
            request_id=request_id,
            environment=environment,
            distance_m=distance_m,
            seed=seed,
            rounds=rounds,
            first_trial=first_trial,
            threshold_m=threshold_m,
            deadline_ms=deadline_ms,
        )
        queue: asyncio.Queue[Message] = asyncio.Queue()
        self._pending[request_id] = queue
        try:
            self._writer.write((encode_message(message) + "\n").encode())
            await self._writer.drain()
            while True:
                reply = await queue.get()
                if isinstance(reply, _ReaderFailed):
                    raise reply.error
                if isinstance(reply, ErrorReply):
                    raise ServiceError(reply)
                yield reply
                if isinstance(reply, RequestComplete):
                    return
        finally:
            self._pending.pop(request_id, None)

    async def stats(self) -> list[StatsReply]:
        """Fetch cumulative scheduler statistics, one reply per shard.

        The first reply's ``shards`` field says how many replies the
        server(s) will send; the list comes back sorted by shard index.
        A single-process server returns exactly one reply.
        """
        request_id = self._next_request_id()
        if request_id in self._pending:
            raise ValueError(f"request id {request_id!r} already in flight")
        queue: asyncio.Queue[Message] = asyncio.Queue()
        self._pending[request_id] = queue
        try:
            line = encode_message(StatsRequest(request_id=request_id))
            self._writer.write((line + "\n").encode())
            await self._writer.drain()
            replies: list[StatsReply] = []
            while True:
                reply = await queue.get()
                if isinstance(reply, _ReaderFailed):
                    raise reply.error
                if isinstance(reply, ErrorReply):
                    raise ServiceError(reply)
                if not isinstance(reply, StatsReply):
                    raise ProtocolError(
                        f"unexpected stats reply: {type(reply).__name__}"
                    )
                replies.append(reply)
                if len(replies) >= reply.shards:
                    return sorted(replies, key=lambda r: r.shard)
        finally:
            self._pending.pop(request_id, None)

    async def calibrate(
        self, environment: str = "office", target_frr_pct: float = 5.0
    ) -> CalibrateReply:
        """Fetch the calibrated τ for an environment.

        A tier answers with one reply whatever its worker count: the
        single-process server from the decisions it streamed, the
        sharded router from the decisions it forwarded, both from
        ``source="measured"`` evidence once enough traffic has accrued,
        or the paper-implied σ prior before (``source="prior"``).
        """
        request_id = self._next_request_id()
        if request_id in self._pending:
            raise ValueError(f"request id {request_id!r} already in flight")
        queue: asyncio.Queue[Message] = asyncio.Queue()
        self._pending[request_id] = queue
        try:
            line = encode_message(
                CalibrateRequest(
                    request_id=request_id,
                    environment=environment,
                    target_frr_pct=target_frr_pct,
                )
            )
            self._writer.write((line + "\n").encode())
            await self._writer.drain()
            reply = await queue.get()
            if isinstance(reply, _ReaderFailed):
                raise reply.error
            if isinstance(reply, ErrorReply):
                raise ServiceError(reply)
            if not isinstance(reply, CalibrateReply):
                raise ProtocolError(
                    f"unexpected calibrate reply: {type(reply).__name__}"
                )
            return reply
        finally:
            self._pending.pop(request_id, None)

    async def authenticate(
        self, *, retry: RetryPolicy | None = None, **request_fields
    ) -> ServedAuthentication:
        """Run one request to completion and collect the full stream.

        With a :class:`RetryPolicy`, retriable failures — ``busy`` /
        ``timeout`` / ``unavailable`` error replies, connection loss, a
        dead reply stream, or a per-attempt timeout — are retried with
        capped, deterministically-jittered backoff, reconnecting first
        when the transport broke.  The same request id is reused on
        every attempt (retrying is idempotent: the service recomputes
        the identical decisions).  The exception that exhausts the
        budget is re-raised with an ``attempts`` attribute stamped on
        it; a successful result carries ``attempts`` too.
        """
        request_fields.setdefault("request_id", self._next_request_id())
        policy = retry or RetryPolicy(attempts=1)
        request_id = request_fields["request_id"]
        attempt = 0
        while True:
            attempt += 1
            try:
                await self._ensure_connection()
                if policy.attempt_timeout_s is not None:
                    served = await asyncio.wait_for(
                        self._authenticate_once(request_fields),
                        policy.attempt_timeout_s,
                    )
                else:
                    served = await self._authenticate_once(request_fields)
                served.attempts = attempt
                return served
            except (
                ServiceError,
                ProtocolError,
                asyncio.TimeoutError,
                OSError,
            ) as error:
                retriable = (
                    error.retriable
                    if isinstance(error, ServiceError)
                    else True
                )
                if not retriable or attempt >= policy.attempts:
                    error.attempts = attempt
                    raise
            await asyncio.sleep(policy.backoff_s(request_id, attempt))

    async def _authenticate_once(
        self, request_fields: dict
    ) -> ServedAuthentication:
        """One attempt: issue the request and collect its whole stream.

        Rounds are collected by round index rather than appended: if a
        previous attempt's stream was cut mid-flight, a straggler reply
        for the same (reused) request id may still arrive — decisions
        are byte-identical across attempts, so keying by index absorbs
        the duplicate instead of double-counting it.
        """
        served = ServedAuthentication(
            request=RangingRequest(**request_fields)
        )
        rounds: dict[int, RoundDecision] = {}
        async for message in self.request(**request_fields):
            if isinstance(message, RoundDecision):
                rounds[message.round_index] = message
            elif isinstance(message, RequestComplete):
                served.complete = message
        served.rounds = [rounds[index] for index in sorted(rounds)]
        return served

    async def _ensure_connection(self) -> None:
        """Redial if the transport is dead; no-op while it is healthy.

        The reader task exiting (server EOF, a desynchronized frame) or
        a closing writer makes every further request fail, so retries
        call this first.  Without a reconnect factory (caller handed in
        raw streams) the client surfaces a :class:`ConnectionError`
        instead — the retry loop then re-raises it once the budget is
        spent.
        """
        broken = self._reader_task.done() or self._writer.is_closing()
        if not broken:
            return
        if self._reconnect_factory is None:
            raise ConnectionError(
                "connection is broken and this client cannot redial"
            )
        await self.close()
        self._reader, self._writer = await self._reconnect_factory()
        self._pending = {}
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    # ------------------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                if not line.strip():
                    continue
                message = decode_message(line)
                request_id = getattr(message, "request_id", "")
                queue = self._pending.get(request_id)
                if queue is not None:
                    queue.put_nowait(message)
                elif not request_id:
                    # The server could not attribute its error to a
                    # request (undecodable line) — fail everyone.
                    raise ProtocolError(
                        f"unattributed server error: {message}"
                    )
                # Replies for already-finished requests are dropped.
        except asyncio.CancelledError:
            raise
        except Exception as error:
            failure = _ReaderFailed(error)
            for queue in self._pending.values():
                queue.put_nowait(failure)


@dataclass
class _ReaderFailed:
    """Sentinel routed to every pending request when the reader dies."""

    error: Exception
