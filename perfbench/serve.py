"""The serve workloads: ``python -m repro serve`` driven over TCP by ``AuthClient``.

* ``serve-light`` — one server process with default options; one
  client on one connection sending its next request when the last is
  answered, one round per request, sessions uniform over 4 Fig. 1
  environments × 4 distances × 64 seeds.  One user at a device: rounds
  never overlap, so per-request cost is the whole latency: client,
  codec, TCP, the event loop and B=1 DSP.  (An open loop of Poisson
  arrivals measures queueing behind chance bursts instead; its p95 moved
  with each seed's bursts, by a quarter of the median between seeds.)
* ``serve-hot`` — ``--workers 2``; 4 clients on 2 connections, two
  rounds per request, sessions Zipf(1.1) over 32 ``home`` sessions.
  Continuous re-authentication from a few hot devices: the only traffic
  that exercises the shard router, pinning skew and coalescing across
  requests.

Both are closed loops fed by ``workload.closed_stream``.  An untraced
run spawns the server :data:`SETUP_SPAWNS` times; each spawn is timed to
its first warm-up decision and the last one serves the measured window.
A request's latency runs from when its client became free, so a delay in
sending it counts.  A seeded sample of served rounds is re-derived
in-process with ``build_trial_session`` and must match byte for byte.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import random
import re
import signal
import subprocess
import sys
import time
from typing import Callable

from host import child_env, process_tree, tree_cpu_s, tree_peak_rss_mb
from probes import codec_us, drive_stages, stage_metrics
from repro.eval.engine import build_trial_session
from repro.service import (
    AuthClient,
    AuthService,
    ErrorReply,
    ProtocolError,
    RangingRequest,
    RequestComplete,
    RetryPolicy,
    RoundDecision,
    ServedAuthentication,
    ServiceError,
    aggregate_decision,
    encode_message,
    request_spec,
    round_decision,
)
from result import WorkloadResult
from stats import Measured, ThinTailError, median_of, percentile
from tracing import Tracer
from workload import Request, Session, closed_stream, hot_sessions, light_sessions, warmup_requests

__all__ = ["PROFILES", "Profile", "run_serve"]

HOST = "127.0.0.1"
BANNER = re.compile(rb"serving PIANO authentication on ([0-9.]+):(\d+)")
#: Server spawns timed per run (the last serves the window): set-up is
#: reported as their median.  Two, not more: a sharded spawn and drain
#: cost ~5 s, and the benchmark's whole schedule of runs has a time cap.
SETUP_SPAWNS = 2
#: Distinct warm-up sessions: a 2-shard tier misses a shard with chance 2**-11.
WARMUP_REQUESTS = 12
VERIFY_ROUNDS = 8
STAGE_ROUNDS = 16
#: Requests replayed in-process (enough for a p95 with 12 samples beyond
#: it, without doubling the run).
INPROC_REQUESTS = 240
#: A run whose generator sent its p95 request this late is invalid.
MAX_LATE_MS = 20.0
SPAWN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclasses.dataclass(frozen=True)
class Profile:
    name: str
    workers: int
    clients: int
    connections: int
    rounds: int
    sessions: Callable[[int], list[Session]]
    zipf_s: float
    limit_ms: float
    #: Batch size of the traced stage drive (the batches this traffic forms).
    stage_batch: int


PROFILES = {
    "serve-light": Profile(
        "serve-light", workers=1, clients=1, connections=1, rounds=1,
        sessions=light_sessions, zipf_s=0.0, limit_ms=250.0, stage_batch=1,
    ),
    "serve-hot": Profile(
        "serve-hot", workers=2, clients=4, connections=2, rounds=2,
        sessions=hot_sessions, zipf_s=1.1, limit_ms=750.0, stage_batch=4,
    ),
}


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port.

    :meth:`terminate` sends SIGTERM (a graceful drain) and returns at
    once, so the shutdown can overlap the next step; :meth:`wait` then
    blocks until the server and every process it started have ended.
    """

    def __init__(self, root: str, workers: int, log_path: str) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--host", HOST, "--port", "0"]
        if workers > 1:
            command += ["--workers", str(workers)]
        env = child_env(os.path.join(root, "src"), os.path.dirname(log_path))
        self._log_path = log_path
        self._log = open(log_path, "ab")
        self._tree: list[int] = []
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self._log_start = self._log.tell()

    def wait_port(self) -> int:
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self._log_path, "rb") as handle:
                handle.seek(self._log_start)
                match = BANNER.search(handle.read())
            if match:
                return int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not come up; see {self._log_path}")

    def terminate(self) -> None:
        self._tree = process_tree(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def wait(self) -> None:
        if not self._tree:
            self.terminate()
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        # Shard workers are the router's children; make sure none outlives it.
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in self._tree[1:]:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.01)
            if os.path.exists(f"/proc/{pid}"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self._log.close()


@dataclasses.dataclass
class Sample:
    request: Request
    due: float
    sent: float
    done: float
    served: ServedAuthentication | None
    error: str | None
    attempts: int

    @property
    def ok(self) -> bool:
        return self.served is not None and self.served.complete is not None

    @property
    def latency_ms(self) -> float:
        return 1e3 * (self.done - self.due)


@dataclasses.dataclass
class Phase:
    t0: float
    samples: list[Sample]
    stats_before: list | None = None
    stats_after: list | None = None
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    first_decision: float = 0.0


def _record(tracer: Tracer, kind: str, call: str, rid: str, due: float, sent: float, done: float) -> None:
    """One request's spans: due → done, the generator's lateness, the call."""
    parent = tracer.add(f"request.{kind}", due, done, request=rid)
    if sent > due:
        tracer.add("loadgen.late", due, sent, parent=parent, request=rid)
    tracer.add(call, sent, done, parent=parent, request=rid)


async def _tcp_call(client, request: Request, due: float, tag: str, tracer: Tracer, retry) -> Sample:
    loop = asyncio.get_running_loop()
    rid = f"{tag}-{request.index}"
    sent = loop.time()
    served = error = None
    try:
        served = await client.authenticate(retry=retry, request_id=rid, **request.fields())
        attempts = served.attempts
    except (ServiceError, ProtocolError, OSError, asyncio.TimeoutError) as exc:
        error = repr(exc)
        attempts = getattr(exc, "attempts", 1)
    done = loop.time()
    if tracer.enabled:
        _record(tracer, "tcp", "client.authenticate", rid, due, sent, done)
    return Sample(request, due, sent, done, served, error, attempts)


async def _inproc_call(service, request: Request, due: float, tag: str, tracer: Tracer) -> Sample:
    loop = asyncio.get_running_loop()
    rid = f"{tag}-{request.index}"
    message = RangingRequest(request_id=rid, **request.fields())
    sent = loop.time()
    served = ServedAuthentication(request=message)
    error = None
    async for reply in service.handle_request(message):
        if isinstance(reply, RoundDecision):
            served.rounds.append(reply)
        elif isinstance(reply, RequestComplete):
            served.complete = reply
        elif isinstance(reply, ErrorReply):
            error = reply.code
    done = loop.time()
    if tracer.enabled:
        _record(tracer, "inproc", "service.handle_request", rid, due, sent, done)
    return Sample(request, due, sent, done, served if error is None else None, error, 1)


async def _closed_loop(stream, profile: Profile, seconds: float, call, limit=None):
    """``profile.clients`` callers, each sending its next request when the last ends.

    A request is due when its client became free, so latency includes
    any delay in sending it.  Stops issuing after ``seconds`` (or
    ``limit`` requests) and waits for those in flight.
    """
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    stop = t0 + seconds
    samples: list[Sample] = []
    issued = 0

    async def client_loop(k: int) -> None:
        nonlocal issued
        free_at = t0
        while loop.time() < stop and (limit is None or issued < limit):
            issued += 1
            sample = await call(next(stream), free_at, k % profile.connections)
            samples.append(sample)
            free_at = sample.done

    await asyncio.gather(*(client_loop(k) for k in range(profile.clients)))
    return t0, samples


def _warmups(profile: Profile, seed: int) -> list[Request]:
    """Warm-up requests on distinct sessions (spread over every shard)."""
    return warmup_requests(seed, WARMUP_REQUESTS, profile.rounds, profile.sessions(seed))


def _traffic(profile: Profile, seed: int):
    return closed_stream(seed, profile.sessions(seed), profile.zipf_s, profile.rounds)


async def _first_decision(client, request: Request) -> float:
    """Send ``request``; the loop time its first round decision arrived."""
    first = None
    async for reply in client.request(request_id="setup", **request.fields()):
        if first is None and isinstance(reply, RoundDecision):
            first = asyncio.get_running_loop().time()
    return first


async def _setup_probe(port: int, request: Request) -> float:
    client = await AuthClient.connect(HOST, port)
    try:
        return await _first_decision(client, request)
    finally:
        await client.close()


async def _tcp_phase(profile, port, pid, seed, seconds, tracer) -> Phase:
    retry = RetryPolicy(attempts=3)
    clients = [await AuthClient.connect(HOST, port) for _ in range(profile.connections)]
    try:
        warm = _warmups(profile, seed)
        first = await _first_decision(clients[0], warm[0])
        # One request at a time: the server's queue high water is a
        # lifetime maximum, and a lone request queues no more than any
        # request of the window does, so the maximum read after the window
        # is the window's own.
        for request in warm[1:]:
            sample = await _tcp_call(
                clients[request.index % len(clients)], request, 0.0, "warm", Tracer(False), retry
            )
            if not sample.ok:
                raise RuntimeError(f"warm-up request failed: {sample.error}")
        before = await clients[0].stats()
        cpu0 = tree_cpu_s(pid)

        async def call(request, due, connection):
            return await _tcp_call(clients[connection], request, due, "tcp", tracer, retry)

        t0, samples = await _closed_loop(_traffic(profile, seed), profile, seconds, call)
        cpu1 = tree_cpu_s(pid)
        after = await clients[0].stats()
        rss = tree_peak_rss_mb(pid)
    finally:
        for client in clients:
            await client.close()
    return Phase(t0, samples, before, after, cpu1 - cpu0, rss, first)


async def _inproc_phase(profile, seed, seconds, tracer) -> Phase:
    async with AuthService() as service:
        warm = _warmups(profile, seed)
        for request in warm:
            await _inproc_call(service, request, 0.0, "warm", Tracer(False))

        async def call(request, due, connection):
            return await _inproc_call(service, request, due, "inproc", tracer)

        t0, samples = await _closed_loop(
            _traffic(profile, seed), profile, seconds, call, limit=INPROC_REQUESTS
        )
    return Phase(t0, samples)


def _setup_spawn(root: str, profile: Profile, seed: int, log_path: str):
    """Spawn a server, time it to its first decision, and stop it."""
    server = ServerProcess(root, profile.workers, log_path)
    try:
        port = server.wait_port()
        first = asyncio.run(_setup_probe(port, _warmups(profile, seed)[0]))
    finally:
        server.terminate()
        server.wait()
    return first - server.started


def verify_rounds(samples: list[Sample], seed: int, count: int) -> list[str]:
    """Re-derive a seeded sample of served rounds; mismatches as messages."""
    rng = random.Random(f"perfbench:verify:{seed}")
    candidates = [
        (sample, index)
        for sample in samples
        if sample.ok
        for index in range(len(sample.served.rounds))
    ]
    problems = []
    for sample, index in rng.sample(candidates, min(count, len(candidates))):
        served = sample.served
        request = served.request
        trial = request.first_trial + index
        outcome = build_trial_session(request_spec(request), trial).run()
        expected = encode_message(round_decision(request, index, trial, outcome))
        if encode_message(served.rounds[index]) != expected:
            problems.append(f"{request.request_id} round {index} differs from build_trial_session")
        if aggregate_decision(request, served.rounds) != served.complete:
            problems.append(f"{request.request_id} aggregate decision differs")
    return problems


def _stage_sample(samples: list[Sample], seed: int, count: int):
    rng = random.Random(f"perfbench:stages:{seed}")
    rounds = [
        (sample, index)
        for sample in samples
        if sample.ok
        for index in range(len(sample.served.rounds))
    ]
    return rng.sample(rounds, min(count, len(rounds)))


def _decision_bytes(sample: Sample) -> list[str]:
    """A sample's round decisions on the wire, request id blanked."""
    return [
        encode_message(dataclasses.replace(r, request_id=""))
        for r in sample.served.rounds
    ]


def _late_ms(samples: list[Sample]) -> list[float]:
    return [max(0.0, 1e3 * (s.sent - s.due)) for s in samples]


def run_serve(root: str, profile: Profile, seed: int, seconds: float, trace: bool, out_dir: str) -> WorkloadResult:
    result = WorkloadResult(profile.name)
    tracer = Tracer(enabled=trace)
    log_path = os.path.join(out_dir, f"{profile.name}-server.log")

    # Set-up is an end-to-end figure: a traced run spawns only the server
    # it measures.
    spawns = 1 if trace else SETUP_SPAWNS
    setups = [_setup_spawn(root, profile, seed, log_path) for _ in range(spawns - 1)]
    server = ServerProcess(root, profile.workers, log_path)
    try:
        port = server.wait_port()
        phase = asyncio.run(_tcp_phase(profile, port, server.proc.pid, seed, seconds, tracer))
        setups.append(phase.first_decision - server.started)
        # The output checks overlap the server's drain; it has ended
        # before the traced probes start.
        server.terminate()
        _score(result, profile, phase, seed, seconds, setups)
    finally:
        server.wait()
    if trace:
        _trace(result, profile, phase, seed, seconds, tracer)
    return result


def _score(result, profile, phase, seed, seconds, setups) -> None:
    """End-to-end metrics, run validity and the output check of the window."""
    samples = phase.samples
    answered = [s for s in samples if s.ok]
    attempted = len(samples)
    result.attempted = attempted
    result.failed = attempted - len(answered)
    for sample in samples:
        if sample.error is not None:
            result.notes.append(f"request {sample.request.index} failed: {sample.error}")
    rounds = sum(len(s.served.rounds) for s in answered)
    wall = max(s.done for s in samples) - phase.t0
    latencies = [s.latency_ms for s in answered]

    e2e = result.e2e
    e2e["setup_s"] = median_of(setups)
    e2e["rounds_per_s"] = Measured(rounds / wall, rounds)
    result.percentiles += [
        ("e2e", "latency_p50_ms", latencies, 0.50),
        ("e2e", "latency_p95_ms", latencies, 0.95),
    ]
    within = sum(1 for s in answered if s.latency_ms <= profile.limit_ms)
    e2e["within_limit_share"] = Measured(within / attempted, attempted)
    e2e["completed_share"] = Measured(len(answered) / attempted, attempted)
    e2e["peak_rss_mb"] = Measured(phase.rss_mb, 1)

    # Run validity: generator lateness and offered vs achieved rate.
    late = _late_ms(samples)
    result.validity.update(
        offered_rps=attempted / seconds,
        achieved_rps=len(answered) / wall,
        late_max_ms=max(late),
        retried=sum(1 for s in samples if s.attempts > 1),
    )
    try:
        late_p95 = percentile(late, 0.95).value
    except ThinTailError:
        late_p95 = max(late)  # short runs: judge by the worst send
    if late_p95 > MAX_LATE_MS:
        result.invalid.append(f"generator ran {late_p95:.1f} ms late at p95")

    result.problems += verify_rounds(samples, seed, VERIFY_ROUNDS)


def _trace(result, profile, phase, seed, seconds, tracer) -> None:
    """Per-layer metrics: window counters, in-process replay, stage drive, codec."""
    samples = phase.samples
    answered = [s for s in samples if s.ok]
    attempted = len(samples)
    rounds = sum(len(s.served.rounds) for s in answered)
    wall = max(s.done for s in samples) - phase.t0
    latencies = [s.latency_ms for s in answered]
    layer = result.layer
    result.percentiles.append(("layer", "loadgen.late_p95_ms", _late_ms(samples), 0.95))
    layer["loadgen.offered_rps"] = Measured(result.validity["offered_rps"], attempted)
    layer["client.retried"] = Measured(result.validity["retried"], attempted)
    layer["process.cpu_ms_per_round"] = Measured(1e3 * phase.cpu_s / rounds, rounds)
    _scheduler_metrics(layer, phase.stats_before, phase.stats_after)

    inproc = asyncio.run(_inproc_phase(profile, seed, seconds, tracer))
    inproc_ok = [s for s in inproc.samples if s.ok]
    by_index = {s.request.index: s for s in answered}
    for sample in inproc_ok:
        tcp = by_index.get(sample.request.index)
        if tcp is not None and _decision_bytes(tcp) != _decision_bytes(sample):
            result.problems.append(
                f"request {sample.request.index}: in-process decisions differ from TCP"
            )
    inproc_latency = [s.latency_ms for s in inproc_ok]
    result.percentiles += [
        ("layer", "server.inproc_p50_ms", inproc_latency, 0.50),
        ("layer", "server.inproc_p95_ms", inproc_latency, 0.95),
        ("layer", "_tcp_p50_ms", latencies, 0.50),
    ]

    chosen = _stage_sample(answered, seed, STAGE_ROUNDS)
    stage_tracer = Tracer(prefix="stage-")
    items = [
        (request_spec(s.served.request), s.served.request.first_trial + i)
        for s, i in chosen
    ]
    outcomes, counts, batches = drive_stages(items, profile.stage_batch, stage_tracer)
    for (sample, index), outcome in zip(chosen, outcomes):
        request = sample.served.request
        expected = encode_message(sample.served.rounds[index])
        got = encode_message(
            round_decision(request, index, request.first_trial + index, outcome)
        )
        if got != expected:
            result.problems.append(
                f"{request.request_id} round {index}: stage drive differs from served"
            )
    layer.update(stage_metrics(stage_tracer, counts, batches, len(items)))
    tracer.spans.extend(stage_tracer.spans)

    messages = [s.served.request for s in answered]
    for s in answered:
        messages += s.served.rounds
        messages.append(s.served.complete)
    layer["protocol.encode_us_per_msg"], layer["protocol.decode_us_per_msg"] = codec_us(messages)
    # Tracing here is span bookkeeping in the load generator; its share of
    # the traced phases' wall time is what it can cost a round.
    inproc_wall = max(s.done for s in inproc.samples) - inproc.t0
    layer["trace.overhead_share"] = Measured(
        tracer.cost_s / (wall + inproc_wall), len(tracer.spans)
    )
    result.tracer = tracer
    result.unmeasured.update(
        {
            name: "serve workloads run no trial engine or experiment"
            for name in ENGINE_ONLY
        }
    )


#: Per-layer metrics that exist only where the trial engine runs.
ENGINE_ONLY = (
    "engine.plans",
    "engine.trials_executed",
    "engine.trials_cached",
    "engine.cache_hit_share",
    "engine.busy_s",
    "experiments.self_s",
)


def _scheduler_metrics(layer: dict, before: list, after: list) -> None:
    """Scheduler and shard figures of the window from two ``stats`` fan-outs.

    Counters are differences across the window.  Queue high water is the
    server's lifetime maximum, which the sequential warm-up keeps equal
    to the window's (see :func:`_tcp_phase`).
    """
    rounds = []
    batches = linger_s = expired = timeouts = 0
    high_water = 0
    for old, new in zip(before, after):
        rounds.append(new.rounds - old.rounds)
        batches += new.batches - old.batches
        linger_s += new.linger_wait_s - old.linger_wait_s
        expired += new.deadline_expired - old.deadline_expired
        timeouts += new.dsp_timeouts - old.dsp_timeouts
        high_water = max(high_water, new.queue_high_water)
    total = sum(rounds)
    layer["scheduler.rounds_per_batch"] = Measured(total / batches, batches)
    layer["scheduler.linger_ms_per_batch"] = Measured(1e3 * linger_s / batches, batches)
    layer["scheduler.queue_high_water"] = Measured(high_water, len(after))
    layer["scheduler.deadline_expired"] = Measured(expired, total)
    layer["scheduler.dsp_timeouts"] = Measured(timeouts, batches)
    layer["shard.max_share"] = Measured(max(rounds) / total, total)
    for shard in range(2):
        layer[f"shard.rounds.{shard}"] = Measured(
            rounds[shard] if shard < len(rounds) else 0, total
        )
