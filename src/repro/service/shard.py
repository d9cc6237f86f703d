"""Least-owed front tier: N supervised workers, one TCP endpoint.

:class:`ShardedAuthServer` multiplies the streaming service across CPU
cores the way a deployment would: it owns the public JSON-lines TCP
listener and routes every :class:`~repro.service.protocol.RangingRequest`
to one of N spawned worker processes, each running a full
:class:`~repro.service.AuthService` (event loop, scheduler, DSP thread)
behind a private unix-domain socket.

Routing is **by load, not by session**.  Every decision is a pure
function of ``(session, trial)``, so any worker computes the same bits
for a round; pinning a session to one worker buys no correctness and
only concentrates hot sessions on one core.  The router therefore sends
each ranging request to the live shard that **owes the fewest rounds**:
the rounds it has forwarded there, across all client connections, that
no terminal reply (or router-sent ``unavailable``) has settled yet.
Ties go to :func:`shard_for_session` — a stable blake2b hash of the
request's session key ``(environment, distance_m, seed)`` — so an idle
tier sends each session to its stable home shard, and with two shards
this is the power-of-two-choices rule.  A slot that is down or breaker-open is
skipped while another slot is up.  The router never re-encodes reply
payloads — it forwards the workers' raw JSON lines byte-for-byte — so
the served bits are exactly the single-process bits at any
``--workers`` count.

The hash is :func:`hashlib.blake2b`, not the builtin ``hash`` (which is
salted per process and would route differently on every restart).

Supervision — the self-healing contract
---------------------------------------

Every shard slot has a supervisor task joined on its worker process.  A
worker that exits outside a drain is a **crash**: the supervisor respawns
it *on the same slot* after a bounded exponential backoff
(``respawn_backoff_s`` doubling up to ``respawn_backoff_max_s``); a slot
that keeps dying (more than ``max_respawns`` crashes inside a
``crash_reset_s`` window) opens a **circuit breaker** and stays down.
Requests avoid a down slot while another is up; if none is, they wait
for a respawn (bounded by ``respawn_wait_s``) or get a structured
``unavailable`` error instead of an infinite respawn loop.

Nothing is replayed.  When a worker dies, every request in flight on it
gets an **attributed, retriable** ``unavailable``
:class:`~repro.service.protocol.ErrorReply` (the router tracks which
request ids each shard owes replies to by peeking at forwarded reply
lines — forwarding itself stays byte-verbatim).  Because every round is
deterministic in ``(session, trial)``, a client retry of the same
request id yields **byte-identical** decisions on whichever worker it
lands — retry-safety is a corollary of the determinism contract, not a
journal.

Shutdown is a coordinated drain: the router flips to answering new
requests with ``busy``, cancels the supervisors (no respawns during
shutdown), SIGTERMs the workers (each
:meth:`~repro.service.AuthService.drain`\\ s: in-flight streams finish,
the DSP thread stops), and waits for them to exit.  A worker that
receives SIGINT/SIGTERM directly (Ctrl-C hits the whole process group)
drains itself the same way.

Calibration has one authority, the router.  The same JSON peek that
settles owed rounds records each ok ``round_decision``'s ranging error
(wire ``distance_m`` minus the request's) in one
:class:`~repro.service.calibration.CalibrationStore`, and the router
answers :class:`~repro.service.protocol.CalibrateRequest` itself with
one reply (shard 0 of 1), exactly as a single-process server does — so
``calibrate`` does not depend on the worker count.  A
:class:`~repro.service.protocol.StatsRequest` still fans out to **all**
workers, each answering with its own scheduler counters tagged
``(shard, shards)`` so the client knows when it has the full set.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import signal
import tempfile
from dataclasses import dataclass, field

from repro.dsp.lanes import share_cpus
from repro.service.calibration import CalibrationStore
from repro.service.faults import FaultInjector, FaultPlan
from repro.service.protocol import (
    CalibrateRequest,
    ErrorReply,
    Message,
    ProtocolError,
    RangingRequest,
    StatsRequest,
    decode_message,
    encode_message,
)

__all__ = ["ShardedAuthServer", "session_key", "shard_for_session"]

#: Reply ``type`` tags that end a request's reply stream — receiving one
#: means the worker owes that request id nothing further.
_TERMINAL_REPLY_TAGS = frozenset({"request_complete", "error", "stats_reply"})


def session_key(request: RangingRequest) -> str:
    """The session of a request: its RNG-universe-defining triple.

    ``first_trial``/``rounds`` slice *within* a session and do not enter
    the key.  It breaks routing ties (:func:`shard_for_session`) and,
    with the trial index, names a round for calibration.  ``distance_m``
    uses ``repr``, which is exact for floats, so distinct cells never
    alias.
    """
    return f"{request.environment}|{request.distance_m!r}|{request.seed}"


def shard_for_session(key: str, shards: int) -> int:
    """Stable home shard of a session key — identical in every process.

    The router sends a request to its home shard whenever that shard
    owes no more rounds than any other live shard.

    blake2b rather than ``hash()``: the builtin is salted per interpreter
    (PYTHONHASHSEED), which would break routing stability across
    restarts and across the router/test processes.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards!r}")
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _shard_worker_main(
    socket_path: str,
    shard_index: int,
    shard_count: int,
    service_options: dict,
) -> None:
    """Entry point of one spawned shard worker (its own event loop)."""
    # One of ``shard_count`` DSP processes: its lanes take that share of
    # the host's CPUs.
    share_cpus(shard_count)
    asyncio.run(
        _run_worker(socket_path, shard_index, shard_count, service_options)
    )


async def _run_worker(
    socket_path: str,
    shard_index: int,
    shard_count: int,
    service_options: dict,
) -> None:
    # Imported here, not at module level: the router imports this module
    # too, and only workers run the server stack (numpy, scipy, the
    # simulator).
    from repro.service.server import AuthService

    service = AuthService(
        shard_index=shard_index,
        shard_count=shard_count,
        **service_options,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    async with service:
        server = await service.serve_unix(socket_path)
        try:
            await stop.wait()
            # Drain with the listener still open: streams in flight
            # finish; anything new gets a busy reply, not a dead socket.
            await service.drain()
        finally:
            server.close()
            await server.wait_closed()


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------


class _ShardUnavailable(RuntimeError):
    """A shard has no live worker right now; the caller should retry."""


@dataclass
class _WorkerSlot:
    """One supervised shard slot: the pinned index outlives the process."""

    shard: int
    process: multiprocessing.Process | None = None
    #: Set while a live worker is accepting on this slot's socket.
    ready: asyncio.Event = field(default_factory=asyncio.Event)
    #: Crashes inside the current ``crash_reset_s`` window.
    crashes: int = 0
    last_crash_at: float = 0.0
    #: Total successful respawns over the slot's lifetime.
    respawns: int = 0
    #: Circuit breaker: the slot crash-looped and stays down.
    failed: bool = False


@dataclass
class _ClientConnection:
    """The router's state for one client connection."""

    writer: asyncio.StreamWriter
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Per shard, this connection's upstream (reader, writer), opened on
    #: first use.
    upstreams: dict[
        int, tuple[asyncio.StreamReader, asyncio.StreamWriter]
    ] = field(default_factory=dict)
    pumps: list[asyncio.Task] = field(default_factory=list)
    #: Per shard, the requests awaiting a terminal reply, by request id.
    outstanding: dict[int, dict[str, Message]] = field(default_factory=dict)
    #: Set once the client is gone: worker EOFs are then expected.
    closing: bool = False


class ShardedAuthServer:
    """TCP front tier routing requests to supervised worker processes.

    Parameters
    ----------
    workers:
        Number of shard worker processes (each a full
        :class:`~repro.service.AuthService`).
    socket_dir:
        Directory for the workers' unix sockets; a private temporary
        directory by default.
    service_options:
        Keyword arguments forwarded to every worker's ``AuthService``
        (``queue_limit``, ``max_inflight_rounds``, ``dsp_timeout_s``).
        Must be picklable — they cross the spawn boundary.
    ready_timeout:
        Seconds to wait for each worker's socket to accept connections
        at :meth:`start` and after each respawn (spawned workers pay the
        package import once).
    max_respawns:
        Crash-loop circuit breaker: after this many crashes of one slot
        inside a ``crash_reset_s`` window, the slot stays down and its
        requests answer ``unavailable``.
    respawn_backoff_s / respawn_backoff_max_s:
        Bounded exponential backoff before each respawn: the Nth
        consecutive crash waits ``respawn_backoff_s * 2**(N-1)`` seconds,
        capped at ``respawn_backoff_max_s``.
    crash_reset_s:
        A slot that stays up this long after a crash gets its crash
        count forgiven (the backoff and breaker reset).
    respawn_wait_s:
        How long a request routed to a currently-dead shard waits for
        the respawn before answering ``unavailable`` (retriable) — this
        bounds added latency during recovery instead of queueing
        unboundedly behind a dead worker.
    fault_plan:
        Optional deterministic :class:`~repro.service.faults.FaultPlan`.
        The router consumes the ``kill_workers`` kind (SIGKILL after the
        Kth forwarded request); worker-side kinds travel to every worker
        via ``service_options``.

    Use as an async context manager, or ``start()`` … ``stop()``.
    """

    def __init__(
        self,
        workers: int,
        *,
        socket_dir: str | None = None,
        service_options: dict | None = None,
        ready_timeout: float = 60.0,
        max_respawns: int = 5,
        respawn_backoff_s: float = 0.25,
        respawn_backoff_max_s: float = 10.0,
        crash_reset_s: float = 60.0,
        respawn_wait_s: float = 30.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {max_respawns!r}"
            )
        if respawn_backoff_s < 0 or respawn_backoff_max_s < 0:
            raise ValueError("respawn backoff values must be >= 0")
        self.workers = workers
        self.service_options = dict(service_options or {})
        self.ready_timeout = ready_timeout
        self.max_respawns = max_respawns
        self.respawn_backoff_s = respawn_backoff_s
        self.respawn_backoff_max_s = respawn_backoff_max_s
        self.crash_reset_s = crash_reset_s
        self.respawn_wait_s = respawn_wait_s
        self._faults: FaultInjector | None = None
        if fault_plan is not None and not fault_plan.empty:
            self._faults = FaultInjector(fault_plan)
            if fault_plan.has_worker_faults:
                self.service_options.setdefault("fault_plan", fault_plan)
        self._socket_dir = socket_dir
        self._owns_socket_dir = socket_dir is None
        self._slots: list[_WorkerSlot] = []
        self._supervisors: list[asyncio.Task] = []
        #: Running client-connection handlers.  The loop holds tasks only
        #: weakly, and once a client disconnects its transport stops
        #: reading, so nothing else keeps a handler (or the pumps its
        #: frame holds) alive while it waits for in-flight replies; a GC
        #: pass would destroy it mid-teardown and leak its sockets.
        self._handlers: set[asyncio.Task] = set()
        #: Per shard, the rounds forwarded and not yet settled.
        self._owed = [0] * workers
        #: The tier's one calibration window, fed by forwarded decisions.
        self.calibration = CalibrationStore()
        self._draining = False
        self._stopped = False

    # -- lifecycle -----------------------------------------------------

    def socket_path(self, shard: int) -> str:
        assert self._socket_dir is not None, "start() first"
        return os.path.join(self._socket_dir, f"shard-{shard}.sock")

    @property
    def total_respawns(self) -> int:
        """Successful worker respawns across all slots (telemetry)."""
        return sum(slot.respawns for slot in self._slots)

    @property
    def owed_rounds(self) -> tuple[int, ...]:
        """Per shard, the forwarded rounds not yet settled (telemetry)."""
        return tuple(self._owed)

    def _spawn(self, shard: int) -> multiprocessing.Process:
        # A stale socket from the previous incarnation must go before
        # the replacement binds the same path.
        try:
            os.unlink(self.socket_path(shard))
        except OSError:
            pass
        context = multiprocessing.get_context("spawn")
        process = context.Process(
            target=_shard_worker_main,
            args=(
                self.socket_path(shard),
                shard,
                self.workers,
                self.service_options,
            ),
            name=f"repro-shard-{shard}",
            daemon=False,
        )
        process.start()
        return process

    async def start(self) -> None:
        """Spawn the workers, wait until all accept, start supervision.

        If any worker fails to come up, every worker already spawned is
        killed and joined and the socket directory is removed before the
        error propagates: the workers are not daemons, so a survivor
        would block the interpreter's exit.
        """
        if self._slots:
            return
        if self._socket_dir is None:
            self._socket_dir = tempfile.mkdtemp(prefix="repro-shards-")
        self._slots = [_WorkerSlot(shard) for shard in range(self.workers)]
        loop = asyncio.get_running_loop()
        waits: list[asyncio.Task] = []
        try:
            for slot in self._slots:
                slot.process = self._spawn(slot.shard)
            waits = [
                loop.create_task(self._wait_ready(slot))
                for slot in self._slots
            ]
            await asyncio.gather(*waits)
        except BaseException:
            for task in waits:
                task.cancel()
            await asyncio.gather(*waits, return_exceptions=True)
            processes = [slot.process for slot in self._slots if slot.process]
            for process in processes:
                process.kill()
            for process in processes:
                await loop.run_in_executor(None, process.join)
            self._remove_sockets()
            self._slots = []
            raise
        self._supervisors = [
            loop.create_task(self._supervise(slot)) for slot in self._slots
        ]

    async def _wait_ready(self, slot: _WorkerSlot) -> None:
        """Poll until ``slot``'s socket accepts; sets ``slot.ready``."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.ready_timeout
        path = self.socket_path(slot.shard)
        while True:
            process = slot.process
            if process is None or not process.is_alive():
                raise RuntimeError(
                    f"shard worker {slot.shard} exited during startup "
                    f"(exitcode "
                    f"{process.exitcode if process else 'unknown'})"
                )
            try:
                reader, writer = await asyncio.open_unix_connection(path)
            except (FileNotFoundError, ConnectionRefusedError, OSError):
                if loop.time() >= deadline:
                    raise RuntimeError(
                        f"shard worker {slot.shard} did not become ready "
                        f"within {self.ready_timeout:g}s"
                    ) from None
                await asyncio.sleep(0.05)
                continue
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            slot.ready.set()
            return

    async def _supervise(self, slot: _WorkerSlot) -> None:
        """Respawn ``slot``'s worker on crash, with backoff and a breaker.

        Joins the current process off-loop; a worker exit during a drain
        is the expected shutdown.  Anything else is a crash: the slot's
        ready gate closes (requests wait, bounded by ``respawn_wait_s``),
        a bounded-exponential backoff elapses, and a fresh worker is
        spawned on the same pinned slot.  More than ``max_respawns``
        crashes inside a ``crash_reset_s`` window opens the circuit
        breaker: the slot stays down, its requests answer
        ``unavailable``, and the rest of the tier keeps serving.
        """
        loop = asyncio.get_running_loop()
        while True:
            process = slot.process
            if process is not None:
                await loop.run_in_executor(None, process.join)
            if self._draining or self._stopped:
                return
            slot.ready.clear()
            now = loop.time()
            if (
                slot.last_crash_at
                and now - slot.last_crash_at > self.crash_reset_s
            ):
                slot.crashes = 0
            slot.crashes += 1
            slot.last_crash_at = now
            if slot.crashes > self.max_respawns:
                slot.failed = True
                return
            backoff = min(
                self.respawn_backoff_s * 2 ** (slot.crashes - 1),
                self.respawn_backoff_max_s,
            )
            if backoff > 0:
                await asyncio.sleep(backoff)
            if self._draining or self._stopped:
                return
            slot.process = self._spawn(slot.shard)
            try:
                await self._wait_ready(slot)
            except RuntimeError:
                # Died (or hung) while starting: make sure it is gone,
                # then account it as another crash on the next join.
                if slot.process is not None and slot.process.is_alive():
                    slot.process.kill()
                continue
            slot.respawns += 1

    async def serve(
        self, host: str = "127.0.0.1", port: int = 8765
    ) -> asyncio.AbstractServer:
        """Start the public TCP listener; returns the asyncio server."""
        await self.start()
        return await asyncio.start_server(self._handle_client, host, port)

    def begin_draining(self) -> None:
        """New requests now get ``busy``; forwarded streams keep running."""
        self._draining = True

    async def drain(self) -> None:
        """Drain and stop every worker; returns when all have exited.

        Cancels the supervisors first (a worker exiting from here on is
        shutdown, not a crash — nothing may respawn), sends SIGTERM
        (each worker finishes its in-flight streams and shuts its DSP
        pool down), waits, and escalates to SIGKILL only if a worker
        ignores the drain for 30 seconds.
        """
        self.begin_draining()
        for task in self._supervisors:
            task.cancel()
        if self._supervisors:
            await asyncio.gather(*self._supervisors, return_exceptions=True)
        self._supervisors = []
        loop = asyncio.get_running_loop()
        processes = [
            slot.process for slot in self._slots if slot.process is not None
        ]
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            await loop.run_in_executor(None, process.join, 30.0)
        for process in processes:
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                await loop.run_in_executor(None, process.join)

    async def stop(self) -> None:
        """Drain the workers, end the connection handlers, remove sockets.

        Handlers still running once the workers have exited belong to
        clients that stay connected; they are cancelled and awaited so
        their upstream and client sockets close.
        """
        if self._stopped:
            return
        self._stopped = True
        await self.drain()
        handlers = list(self._handlers)
        for task in handlers:
            task.cancel()
        if handlers:
            await asyncio.gather(*handlers, return_exceptions=True)
        self._remove_sockets()

    def _remove_sockets(self) -> None:
        """Unlink the workers' sockets and the directory this tier owns."""
        if self._socket_dir is None:
            return
        for shard in range(self.workers):
            try:
                os.unlink(self.socket_path(shard))
            except OSError:
                pass
        if self._owns_socket_dir:
            try:
                os.rmdir(self._socket_dir)
            except OSError:
                pass
            self._socket_dir = None

    async def __aenter__(self) -> "ShardedAuthServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- per-connection routing ----------------------------------------

    def _route(self, request: RangingRequest) -> int:
        """The live shard owing the fewest rounds; ties go home.

        Home is :func:`shard_for_session`, then the shards after it in
        index order, so an idle tier sends each session to its stable
        home shard.  With no slot up, every slot is a candidate: the
        pick then waits for its respawn or answers ``unavailable``.
        """
        home = shard_for_session(session_key(request), self.workers)
        candidates = [
            slot.shard
            for slot in self._slots
            if slot.ready.is_set() and not slot.failed
        ]
        return min(
            candidates or range(self.workers),
            key=lambda shard: (
                self._owed[shard],
                (shard - home) % self.workers,
            ),
        )

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Route one client connection's lines to the shard workers.

        Lazily opens one upstream connection per shard actually used by
        this client; a pump task per upstream forwards the worker's
        reply lines to the client **verbatim** (no decode/re-encode on
        the reply path — the workers' bytes are the contract).  The
        router remembers which requests each shard still owes replies
        to, so a worker crash turns into attributed, retriable
        ``unavailable`` errors instead of silence, and so owed rounds
        are settled however the request ends.
        """
        handler = asyncio.current_task()
        self._handlers.add(handler)
        handler.add_done_callback(self._handlers.discard)
        conn = _ClientConnection(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    await self._send(
                        conn,
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
                        conn, ErrorReply("", "bad-request", str(error))
                    )
                    continue
                if isinstance(message, CalibrateRequest):
                    await self._send(conn, self.calibration.reply(message))
                    continue
                if isinstance(message, StatsRequest):
                    # Fan out: every shard answers with its own scheduler
                    # counters, tagged (shard, shards) so the client can
                    # collect the set.
                    for shard in range(self.workers):
                        await self._forward(conn, shard, line, message)
                    continue
                if not isinstance(message, RangingRequest):
                    await self._send(
                        conn,
                        ErrorReply(
                            getattr(message, "request_id", ""),
                            "bad-request",
                            "only ranging_request messages are accepted",
                        ),
                    )
                    continue
                if self._draining:
                    await self._send(
                        conn,
                        ErrorReply(
                            message.request_id,
                            "busy",
                            "service is draining for shutdown; retry later",
                        ),
                    )
                    continue
                # A reused request id means the client gave up on the
                # earlier attempt (a retry): it owes nothing any more.
                for shard in list(conn.outstanding):
                    self._settle(conn, shard, message.request_id)
                shard = self._route(message)
                forwarded = await self._forward(conn, shard, line, message)
                if (
                    forwarded
                    and self._faults is not None
                    and self._faults.take_kill_worker(shard)
                ):
                    process = self._slots[shard].process
                    if process is not None and process.is_alive():
                        process.kill()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown (router exiting): clean up quietly.
            pass
        finally:
            # Client went away (or half-closed): tell the workers no
            # more requests are coming, let in-flight replies finish
            # pumping, then tear the connection down.
            conn.closing = True
            for _, upstream_writer in conn.upstreams.values():
                try:
                    upstream_writer.write_eof()
                except (OSError, RuntimeError):
                    pass
            try:
                if conn.pumps:
                    await asyncio.gather(*conn.pumps, return_exceptions=True)
            finally:
                # Whatever is still owed (drain, cancellation) is settled
                # here; close every socket even when ``stop()`` cancels
                # this handler while its pumps are still forwarding.
                for shard in list(conn.outstanding):
                    for request_id in list(conn.outstanding[shard]):
                        self._settle(conn, shard, request_id)
                for _, upstream_writer in conn.upstreams.values():
                    upstream_writer.close()
                writer.close()
            for _, upstream_writer in conn.upstreams.values():
                try:
                    await upstream_writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _forward(
        self,
        conn: _ClientConnection,
        shard: int,
        line: bytes,
        message: RangingRequest | StatsRequest,
    ) -> bool:
        """Forward one request line to ``shard``; False = answered with
        a structured ``unavailable`` error instead (shard down)."""
        try:
            upstream = await self._upstream(conn, shard)
        except _ShardUnavailable as error:
            await self._send(
                conn, ErrorReply(message.request_id, "unavailable", str(error))
            )
            return False
        conn.outstanding.setdefault(shard, {})[message.request_id] = message
        if isinstance(message, RangingRequest):
            self._owed[shard] += message.rounds
        try:
            upstream.write(line)
            await upstream.drain()
        except (ConnectionResetError, BrokenPipeError):
            # Worker died between open and write; the pump's EOF path
            # answers this (and any other) outstanding id.
            pass
        return True

    def _settle(
        self, conn: _ClientConnection, shard: int, request_id: str
    ) -> None:
        """``shard`` owes ``request_id`` nothing further on ``conn``."""
        message = conn.outstanding.get(shard, {}).pop(request_id, None)
        if isinstance(message, RangingRequest):
            self._owed[shard] -= message.rounds

    async def _upstream(
        self, conn: _ClientConnection, shard: int
    ) -> asyncio.StreamWriter:
        """This connection's upstream to ``shard``, opened on first use.

        If the slot's worker is dead, waits (bounded by
        ``respawn_wait_s``) for the supervisor to bring the replacement
        up; a slot whose circuit breaker is open, or that stays down past
        the wait budget, raises :class:`_ShardUnavailable` — the caller
        answers with a structured, retriable error.
        """
        entry = conn.upstreams.get(shard)
        if entry is not None:
            return entry[1]
        slot = self._slots[shard]
        if slot.failed:
            raise _ShardUnavailable(
                f"shard {shard} is down "
                f"(crash-loop circuit breaker open after {slot.crashes} "
                f"crashes)"
            )
        if not slot.ready.is_set():
            try:
                await asyncio.wait_for(
                    slot.ready.wait(), self.respawn_wait_s
                )
            except asyncio.TimeoutError:
                raise _ShardUnavailable(
                    f"shard {shard} worker is down (respawn pending); "
                    f"retry"
                ) from None
            if slot.failed:  # breaker opened while we waited
                raise _ShardUnavailable(
                    f"shard {shard} is down (crash-loop circuit breaker "
                    f"open)"
                )
        try:
            upstream_reader, upstream_writer = (
                await asyncio.open_unix_connection(self.socket_path(shard))
            )
        except (FileNotFoundError, ConnectionRefusedError, OSError):
            raise _ShardUnavailable(
                f"shard {shard} worker is not accepting connections; retry"
            ) from None
        conn.upstreams[shard] = (upstream_reader, upstream_writer)
        conn.pumps.append(
            asyncio.get_running_loop().create_task(
                self._pump(conn, shard, upstream_reader)
            )
        )
        return upstream_writer

    def _note_reply(
        self, conn: _ClientConnection, shard: int, line: bytes
    ) -> None:
        """Record a forwarded decision's error, or settle a terminal reply.

        This peek is the only reply-path JSON parse, and it never feeds
        what gets forwarded — the client receives the worker's original
        bytes regardless.  The codec is float-exact, so the error is the
        very float the single-process server records.
        """
        try:
            payload = json.loads(line)
        except ValueError:
            return
        if not isinstance(payload, dict):
            return
        tag = payload.get("type")
        request_id = payload.get("request_id")
        if tag == "round_decision":
            request = conn.outstanding.get(shard, {}).get(request_id)
            if (
                isinstance(request, RangingRequest)
                and payload.get("status") == "ok"
            ):
                self.calibration.record(
                    request.environment,
                    payload["distance_m"] - request.distance_m,
                    key=(session_key(request), payload["trial"]),
                )
        elif tag in _TERMINAL_REPLY_TAGS:
            self._settle(conn, shard, request_id)

    async def _pump(
        self,
        conn: _ClientConnection,
        shard: int,
        upstream_reader: asyncio.StreamReader,
    ) -> None:
        """Forward one worker's reply lines to the client, byte-for-byte.

        Once the client is gone the pump keeps reading without writing,
        so the rounds the worker still computes stay owed until it
        finishes them.
        """
        client_gone = False
        while True:
            try:
                line = await upstream_reader.readline()
            except (ConnectionResetError, BrokenPipeError, OSError):
                # A SIGKILLed worker surfaces as ECONNRESET at least as
                # often as a clean EOF — both mean the same thing here:
                # the worker is gone.  Fall through to the crash path so
                # the dead upstream is evicted and outstanding ids are
                # answered, not silently orphaned.
                line = b""
            if not line:
                break
            self._note_reply(conn, shard, line)
            if client_gone:
                continue
            try:
                async with conn.write_lock:
                    conn.writer.write(line)
                    await conn.writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                # The *client* went away; _handle_client's cleanup owns
                # the teardown.
                client_gone = True
        if conn.closing or client_gone or self._draining:
            return
        # The worker hung up while the client is still talking — a
        # crash, not a drain.  Evict the dead upstream (the next request
        # reconnects or goes to another shard) and fail every request
        # this shard still owed a terminal reply with an attributed,
        # retriable error: per-(session, trial) determinism makes the
        # retry byte-identical wherever it lands.
        entry = conn.upstreams.pop(shard, None)
        if entry is not None:
            entry[1].close()
        lost = list(conn.outstanding.get(shard, {}))
        for request_id in lost:
            self._settle(conn, shard, request_id)
        for request_id in lost:
            try:
                await self._send(
                    conn,
                    ErrorReply(
                        request_id,
                        "unavailable",
                        f"shard {shard} worker exited mid-request; "
                        f"retry (no partial state survives)",
                    ),
                )
            except (ConnectionResetError, BrokenPipeError):
                return

    @staticmethod
    async def _send(conn: _ClientConnection, message: Message) -> None:
        data = (encode_message(message) + "\n").encode("utf-8")
        async with conn.write_lock:
            conn.writer.write(data)
            await conn.writer.drain()
