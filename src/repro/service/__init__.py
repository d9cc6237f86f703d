"""Streaming authentication service over the staged ranging pipeline.

``repro.service`` turns the repo's pure pipeline into a deployable
asyncio service (the flow PIANO's paper targets: an auth request arrives,
the ranging protocol runs, accept/reject streams back within a speech
interaction).  Eight modules:

* **protocol** — the wire messages (flat frozen dataclasses) and their
  newline-delimited JSON codec, plus the request → trial mapping and the
  PIANO aggregate decision rule;
* **scheduler** — :class:`BatchingScheduler`, which coalesces the
  deterministic DSP of concurrent in-flight rounds into stacked
  ``render_arrivals`` + ``detect_batch`` passes on its one DSP thread;
* **server** — :class:`AuthService`: request validation, the per-round
  stage drive (RNG stages on the request path, DSP via the scheduler),
  decision streaming, graceful draining, and the JSON-lines TCP/unix
  listeners behind ``python -m repro serve``;
* **calibration** — :class:`CalibrationStore`, per-deployment threshold
  auto-calibration: bounded windows of served ranging errors per
  environment, σ_d estimation, and τ selection for a target FRR through
  the §VI-C Gaussian model (read over the wire via ``calibrate``);
* **shard** — :class:`ShardedAuthServer`, the multi-process front tier:
  one TCP endpoint, N *supervised* worker processes (crash detection,
  pinned-slot respawn with bounded backoff, a crash-loop circuit
  breaker), consistent session → shard routing
  (``python -m repro serve --workers N``);
* **client** — :class:`AuthClient`, an async client multiplexing
  concurrent requests over one connection, with :class:`RetryPolicy`
  retries (idempotent by request id) and transparent reconnect;
* **faults** — :class:`FaultPlan` / :class:`FaultInjector`, the
  deterministic fault-injection seam (kill a worker, delay a batch,
  drop/truncate a frame, bounce one request busy) that lets pytest and
  ``tools/chaos_smoke.py`` exercise every recovery path above;
* **loadgen** — open- and closed-loop load generation with latency
  percentiles, per-class reply counts, and first-attempt vs
  retry-inflated latency (``tools/loadgen.py`` and the scaling
  benchmark).

Contracts (details in ``docs/service.md``):

* **Determinism** — a served decision is bit-identical to the same trial
  executed by the CLI engine, at any ``--workers`` count; round ``i``
  of a request is trial ``first_trial + i`` of the equivalent
  ``TrialSpec`` cell.
* **Throughput** — concurrent requests share stacked DSP passes, so the
  service inherits the batched hot path instead of paying
  request-at-a-time kernel dispatch.
* **Backpressure** — a bounded round queue; excess requests receive a
  ``busy`` error instead of unbounded queueing.
* **Graceful shutdown** — draining finishes accepted streams, answers
  new requests with ``busy``, and closes the DSP threads.
* **Fail closed** — every failure path (deadline expiry, DSP timeout,
  worker crash, unexpected exception) produces a structured error
  reply, never a grant; under any injected fault schedule the granted
  set is a subset of the unfaulted run's and every completed decision
  is bit-identical to it.
"""

from repro.service.calibration import (
    CalibrationStore,
    CalibrationSummary,
    robust_sigma,
)
from repro.service.client import (
    AuthClient,
    RetryPolicy,
    ServedAuthentication,
    ServiceError,
)
from repro.service.faults import (
    BusyOnce,
    DelayBatch,
    FaultInjector,
    FaultPlan,
    FrameFault,
    KillWorker,
)
from repro.service.loadgen import LoadgenReport, run_loadgen
from repro.service.protocol import (
    ERROR_CODES,
    MESSAGE_TYPES,
    RETRIABLE_ERROR_CODES,
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
    aggregate_decision,
    decode_message,
    encode_message,
    request_spec,
    round_decision,
)
from repro.service.scheduler import (
    BatchingScheduler,
    DeadlineExceeded,
    SchedulerStats,
    ServiceOverloaded,
)
from repro.service.server import AuthService
from repro.service.shard import (
    ShardedAuthServer,
    session_key,
    shard_for_session,
)

__all__ = [
    "ERROR_CODES",
    "MESSAGE_TYPES",
    "RETRIABLE_ERROR_CODES",
    "AuthClient",
    "AuthService",
    "BatchingScheduler",
    "BusyOnce",
    "CalibrateReply",
    "CalibrateRequest",
    "CalibrationStore",
    "CalibrationSummary",
    "DeadlineExceeded",
    "DelayBatch",
    "ErrorReply",
    "FaultInjector",
    "FaultPlan",
    "FrameFault",
    "KillWorker",
    "LoadgenReport",
    "Message",
    "ProtocolError",
    "RangingRequest",
    "RequestComplete",
    "RetryPolicy",
    "RoundDecision",
    "SchedulerStats",
    "ServedAuthentication",
    "ServiceError",
    "ServiceOverloaded",
    "ShardedAuthServer",
    "StatsReply",
    "StatsRequest",
    "aggregate_decision",
    "decode_message",
    "encode_message",
    "request_spec",
    "robust_sigma",
    "round_decision",
    "run_loadgen",
    "session_key",
    "shard_for_session",
]
