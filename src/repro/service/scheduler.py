"""Coalescing DSP scheduler: concurrent rounds share one DSP pass.

The request path of the service (``repro.service.server``) runs the
round's RNG-bound prefix — :func:`~repro.sim.pipeline.prepare` —
inline on the event loop, then queues the resulting
:class:`~repro.sim.pipeline.PreparedRound` on a
:class:`BatchingScheduler`, which resolves it with the round's
:class:`~repro.sim.pipeline.DetectionPair` alone.  The scheduler's
collector task gathers every round pending at that moment (up to
:data:`MAX_ROUNDS_PER_PASS`, lingering at most :data:`MAX_LINGER_S`
while announced rounds are still on their way) and executes the
deterministic half of the pipeline —
:func:`~repro.sim.pipeline.render_arrivals` plus
:func:`~repro.sim.pipeline.detect_batch` — as **one** pass on the
scheduler's DSP thread, which spreads the pass's captures over the
process's DSP lanes (:mod:`repro.dsp.lanes`), so even a lone round's two
captures run on two CPUs.  The event loop stays free to prepare the next
rounds meanwhile.

Determinism: batch composition is a scheduling decision, never a
numerical one (invariant 2 of :mod:`repro.sim.pipeline`), so *which*
requests happen to share a pass cannot change any round's bits.
``prepare`` and ``exchange`` never enter the scheduler — each stays on
its own session's stream, in order.

Backpressure: the queue itself is unbounded.  The server submits a
round only while the round holds one of its ``max_inflight_rounds``
gate slots, so that gate bounds the queue (``queue_high_water`` never
exceeds it).  :meth:`BatchingScheduler.stop` fails whatever is still
queued with :class:`ServiceOverloaded`, which the server answers with a
retriable ``busy`` error.

Deadlines: a round may carry an ``expires_at`` loop time.  Expiry is
enforced **at batch admission only** — when the collector is about to
dispatch a batch, rounds whose deadline already lapsed fail with
:class:`DeadlineExceeded` and the rest run as one normal pass.
Never mid-batch: batch composition stays a pure scheduling decision and
admitted rounds always complete, so decisions remain bit-identical to
the unfaulted/undeadlined run.  Independently, ``dsp_timeout_s`` bounds
how long one pass may take on the executor; a pass that exceeds
it fails all its rounds closed with :class:`DeadlineExceeded` and marks
the executor *suspect* (``SchedulerStats.dsp_timeouts``) — a wedged DSP
job can stall its own batch, never the event loop.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from repro.service.faults import FaultInjector
from repro.sim.pipeline import (
    DetectionPair,
    PreparedRound,
    detect_batch,
    render_arrivals,
)

__all__ = [
    "BatchingScheduler",
    "DeadlineExceeded",
    "MAX_LINGER_S",
    "MAX_ROUNDS_PER_PASS",
    "SchedulerStats",
    "ServiceOverloaded",
]

#: Most rounds one DSP pass carries.  Coalescing pays on a loaded
#: server: one round per pass lowered serve-hot rounds/s and raised its
#: p95 in 4 of 4 alternating benchmark pairs (2-CPU host).
MAX_ROUNDS_PER_PASS = 16

#: Longest the collector gathers a pass, and only while announced rounds
#: are outstanding.  Coalescing whatever is queued, with no announce
#: rule, raised serve-hot p50 in 5 of 6 pairs.
MAX_LINGER_S = 0.005


class ServiceOverloaded(RuntimeError):
    """The scheduler stopped before the round ran; the caller should retry."""


class DeadlineExceeded(RuntimeError):
    """A round ran out of time — its deadline lapsed before batch
    admission, or its DSP pass exceeded ``dsp_timeout_s``.

    Always fails closed: the server maps this to a structured
    ``timeout`` error reply (a deny), never a grant.  Retriable — a
    retry re-executes the round deterministically from its request id.
    """


@dataclass
class SchedulerStats:
    """Cumulative accounting of what the collector has dispatched.

    Beyond the dispatch totals, three operational signals feed the
    ``stats`` wire message (and through it the load generator's report):
    the batch-size histogram (how well traffic actually coalesced), the
    total linger wait (latency the collector added while gathering
    stragglers), and the queue-depth high-water mark (how many rounds
    the in-flight gate let wait for DSP at once).
    """

    rounds: int = 0
    batches: int = 0
    largest_batch: int = 0
    #: ``{batch size: dispatch count}`` over every dispatched batch.
    batch_sizes: dict[int, int] = field(default_factory=dict)
    #: Total seconds batches spent gathering after their first round was
    #: picked up — the latency cost of coalescing.
    linger_wait_s: float = 0.0
    #: Highest number of rounds ever pending in the queue at once.
    queue_high_water: int = 0
    #: Rounds whose ``deadline_ms`` lapsed before batch admission.
    deadline_expired: int = 0
    #: Passes that exceeded ``dsp_timeout_s`` — each marks the
    #: DSP executor *suspect* (a wedged worker or pathological batch).
    dsp_timeouts: int = 0

    @property
    def rounds_per_batch(self) -> float:
        return self.rounds / self.batches if self.batches else 0.0

    def record_batch(self, size: int, waited_s: float) -> None:
        """Account one dispatched batch of ``size`` rounds."""
        self.rounds += size
        self.batches += 1
        self.largest_batch = max(self.largest_batch, size)
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1
        self.linger_wait_s += waited_s

    def histogram_text(self) -> str:
        """The batch-size histogram as ``"size:count,..."`` (sorted).

        The flat wire codec carries only scalars, so the ``stats_reply``
        message ships the histogram in this compact string form.
        """
        return ",".join(
            f"{size}:{count}"
            for size, count in sorted(self.batch_sizes.items())
        )


@dataclass
class _PendingRound:
    """One prepared round awaiting its DSP pass."""

    prepared: PreparedRound
    future: "asyncio.Future[DetectionPair]" = field(repr=False)
    #: Loop time after which the round must not be admitted to a batch
    #: (``None`` = no deadline).
    expires_at: float | None = None


def _execute_rounds(batch: Sequence[_PendingRound]) -> list[DetectionPair]:
    """The deterministic DSP of a batch, from the executor thread.

    Renders and observes all 2·B captures on the process's DSP lanes —
    the same calls :class:`~repro.sim.pipeline.BatchedSessionRunner`
    makes for trial batches.
    """
    rounds = [item.prepared for item in batch]
    recordings = render_arrivals([prepared.planned for prepared in rounds])
    return detect_batch(
        [
            (prepared.context, prepared.negotiation, rendered)
            for prepared, rendered in zip(rounds, recordings)
        ]
    )


class BatchingScheduler:
    """Batches concurrent rounds into shared DSP passes.

    Passes run one at a time from the scheduler's own one-thread
    executor: the collector awaits each pass before gathering the next.
    The DSP thread hands a pass's captures to the process's DSP lanes
    (:mod:`repro.dsp.lanes`), one capture per lane, and the lanes overlap
    because numpy's ``rfft`` releases the GIL.  A single-process server
    gets a lane per CPU; shard workers of ``--workers N`` share the CPUs
    and get a 1/N share each.

    A pass carries at most :data:`MAX_ROUNDS_PER_PASS` rounds; the
    collector lingers for more only while announced rounds are
    outstanding, and for at most :data:`MAX_LINGER_S`.

    Parameters
    ----------
    dsp_timeout_s:
        Upper bound on one pass.  A pass that exceeds it fails
        every round in its batch with :class:`DeadlineExceeded` (the
        server answers ``timeout``, a deny) and increments
        ``stats.dsp_timeouts`` — the executor is then *suspect*: the
        abandoned pass keeps running on the one DSP thread, so the next
        passes queue behind it and fail closed the same way until it
        ends.  ``None`` (default) never times a pass out.
    faults:
        Optional :class:`~repro.service.faults.FaultInjector` supplying
        deterministic batch-admission delays for tests and the chaos
        smoke.  ``None`` injects nothing.
    """

    def __init__(
        self,
        *,
        dsp_timeout_s: float | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        if dsp_timeout_s is not None and dsp_timeout_s <= 0:
            raise ValueError(
                f"dsp_timeout_s must be > 0, got {dsp_timeout_s!r}"
            )
        self.dsp_timeout_s = dsp_timeout_s
        self.faults = faults
        self.stats = SchedulerStats()
        #: Rounds announced (via :meth:`announce`) but not yet submitted:
        #: the collector lingers only while this is positive, so a lone
        #: request never pays the linger and a burst fills its batch.
        self._announced = 0
        self._queue: asyncio.Queue[_PendingRound] = asyncio.Queue()
        self._executor: ThreadPoolExecutor | None = None
        self._collector: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._collector is not None and not self._collector.done()

    async def start(self) -> None:
        """Start the collector task and its DSP thread (idempotent)."""
        if self.running:
            return
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-dsp"
            )
        self._collector = asyncio.get_running_loop().create_task(
            self._collect()
        )

    async def stop(self) -> None:
        """Cancel the collector, fail anything still queued, and shut the
        DSP thread down.

        The shutdown waits for a pass that ``dsp_timeout_s`` abandoned to
        end, so it is awaited on a helper thread: the event loop keeps
        serving other tasks meanwhile.
        """
        if self._collector is not None:
            self._collector.cancel()
            try:
                await self._collector
            except asyncio.CancelledError:
                pass
            self._collector = None
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if not item.future.done():
                item.future.set_exception(
                    ServiceOverloaded("scheduler stopped")
                )
        executor, self._executor = self._executor, None
        if executor is not None:
            await asyncio.to_thread(executor.shutdown, wait=True)

    async def __aenter__(self) -> "BatchingScheduler":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def announce(self, rounds: int) -> None:
        """Declare that ``rounds`` submissions are on their way.

        The collector lingers for stragglers only while announced rounds
        remain outstanding, so batches fill under load without a lone
        request ever waiting on a blind timeout.  Each announced round
        must be consumed by a ``run_round(..., announced=True)`` call or
        returned with :meth:`retract`.
        """
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds!r}")
        self._announced += rounds

    def retract(self, rounds: int = 1) -> None:
        """Return announced rounds that will never be submitted."""
        self._announced = max(0, self._announced - rounds)

    async def run_round(
        self,
        prepared: PreparedRound,
        announced: bool = False,
        expires_at: float | None = None,
    ) -> DetectionPair:
        """Queue one prepared round; resolves with its detections.

        ``announced=True`` consumes one prior :meth:`announce` slot.
        ``expires_at`` (a loop time) makes the round raise
        :class:`DeadlineExceeded` instead of running if its batch is
        admitted after that instant; once admitted, a round always
        completes.  :meth:`stop` fails a round still queued with
        :class:`ServiceOverloaded`.
        """
        if announced:
            self.retract(1)
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(_PendingRound(prepared, future, expires_at))
        self.stats.queue_high_water = max(
            self.stats.queue_high_water, self._queue.qsize()
        )
        return await future

    # ------------------------------------------------------------------
    # Collector
    # ------------------------------------------------------------------

    async def _collect(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            picked_up = loop.time()
            await self._gather_more(batch)
            await self._dispatch(batch, loop.time() - picked_up)

    async def _gather_more(self, batch: list[_PendingRound]) -> None:
        """Fill ``batch`` up to :data:`MAX_ROUNDS_PER_PASS` from ready work.

        Announced-work-aware, timer-free lingering: while announced
        rounds are outstanding, yield one cooperative loop cycle
        (``sleep(0)``) so every ready producer task runs its prepare and
        submits, then drain again.  The moment a full cycle produces
        nothing new — the remaining announced rounds are blocked on
        something slower than a loop cycle — the batch dispatches; an
        isolated round therefore never waits at all, and
        :data:`MAX_LINGER_S` only caps the total gathering time under
        pathological load.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + MAX_LINGER_S
        while len(batch) < MAX_ROUNDS_PER_PASS:
            # Drain whatever is already pending without yielding.
            try:
                while len(batch) < MAX_ROUNDS_PER_PASS:
                    batch.append(self._queue.get_nowait())
                return
            except asyncio.QueueEmpty:
                pass
            if self._announced <= 0 or loop.time() >= deadline:
                return
            # One cooperative cycle: every ready producer gets to run.
            await asyncio.sleep(0)
            if self._queue.empty():
                return

    def _submit_batch(
        self, batch: list[_PendingRound]
    ) -> "asyncio.Future[list[DetectionPair]]":
        """Hand one batch to the DSP thread."""
        return asyncio.get_running_loop().run_in_executor(
            self._executor, _execute_rounds, batch
        )

    async def _dispatch(
        self, batch: list[_PendingRound], waited_s: float = 0.0
    ) -> None:
        # Rounds whose futures were abandoned (client disconnected, the
        # request errored out) must not cost a DSP pass.
        batch = [item for item in batch if not item.future.done()]
        if not batch:
            return
        if self.faults is not None:
            delay_s = self.faults.take_batch_delay_s()
            if delay_s > 0.0:
                await asyncio.sleep(delay_s)
        # Deadline expiry happens here and only here — before admission.
        # An admitted round always completes, so batch composition never
        # becomes a numerical decision.
        now = asyncio.get_running_loop().time()
        admitted: list[_PendingRound] = []
        for item in batch:
            if item.expires_at is not None and now >= item.expires_at:
                self.stats.deadline_expired += 1
                if not item.future.done():
                    item.future.set_exception(
                        DeadlineExceeded(
                            "deadline expired before batch admission"
                        )
                    )
            else:
                admitted.append(item)
        batch = admitted
        if not batch:
            return
        self.stats.record_batch(len(batch), waited_s)
        try:
            submitted = self._submit_batch(batch)
            if self.dsp_timeout_s is not None:
                results = await asyncio.wait_for(
                    submitted, self.dsp_timeout_s
                )
            else:
                results = await submitted
        except asyncio.TimeoutError:
            # The executor is now suspect: wait_for abandoned the pass,
            # but the work may still be running on the DSP thread.
            self.stats.dsp_timeouts += 1
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(
                        DeadlineExceeded(
                            f"DSP pass exceeded "
                            f"dsp_timeout_s={self.dsp_timeout_s}"
                        )
                    )
            return
        except asyncio.CancelledError:
            for item in batch:
                if not item.future.done():
                    item.future.cancel()
            raise
        except BaseException as error:
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(
                        RuntimeError(f"DSP batch failed: {error!r}")
                    )
            return
        for item, result in zip(batch, results):
            if not item.future.done():
                item.future.set_result(result)
