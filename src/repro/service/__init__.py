"""Streaming authentication service over the staged ranging pipeline.

``repro.service`` turns the repo's pure pipeline into a deployable
asyncio service (the flow PIANO's paper targets: an auth request arrives,
the ranging protocol runs, accept/reject streams back within a speech
interaction).  Eight modules:

* **protocol** — the stdlib-only wire layer: the messages (flat frozen
  dataclasses), the error-code vocabulary, and their newline-delimited
  JSON codec;
* **scheduler** — :class:`BatchingScheduler`, which coalesces the
  deterministic DSP of concurrent in-flight rounds into shared
  ``render_arrivals`` + ``detect_batch`` passes on its one DSP thread,
  which spreads each pass's captures over the process's DSP lanes;
* **server** — :class:`AuthService`: request validation, the request →
  trial mapping (``request_spec``), the per-round stage drive (RNG
  stages on the request path, DSP via the scheduler), decision
  streaming (``round_decision``) with the PIANO aggregate rule
  (``aggregate_decision``), both deciding through
  :mod:`repro.core.decisions`,
  graceful draining, and the JSON-lines TCP/unix listeners behind
  ``python -m repro serve``;
* **calibration** — :class:`CalibrationStore`, per-deployment threshold
  auto-calibration: bounded windows of served ranging errors per
  environment, σ_d estimation, and τ selection for a target FRR through
  the §VI-C Gaussian model (read over the wire via ``calibrate``);
* **shard** — :class:`ShardedAuthServer`, the multi-process front tier:
  one TCP endpoint, N *supervised* worker processes (crash detection,
  same-slot respawn with bounded backoff, a crash-loop circuit
  breaker), least-owed-rounds routing, and the tier's one calibration
  window (``python -m repro serve --workers N``);
* **client** — :class:`AuthClient`, an async client multiplexing
  concurrent requests over one connection, with :class:`RetryPolicy`
  retries (idempotent by request id) and transparent reconnect;
* **faults** — :class:`FaultPlan` / :class:`FaultInjector`, the
  deterministic fault-injection seam (kill a worker, delay a batch,
  drop/truncate a frame, bounce one request busy) that lets pytest and
  ``tools/chaos_smoke.py`` exercise every recovery path above;
* **loadgen** — open- and closed-loop load generation with latency
  percentiles, per-class reply counts, and first-attempt vs
  retry-inflated latency (``tools/loadgen.py``).

The package exports lazily (PEP 562): each name below is imported from
its module on first access, so a process pays only for the modules it
touches.  The shard router and the client stack (``shard``, ``client``,
``protocol``, ``faults``) import no numpy or scipy; only a process that
touches ``server``, ``scheduler`` or ``calibration`` loads the
simulator.

Contracts (details in ``docs/service.md``):

* **Determinism** — a served decision is bit-identical to the same trial
  executed by the CLI engine, at any ``--workers`` count; round ``i``
  of a request is trial ``first_trial + i`` of the equivalent
  ``TrialSpec`` cell.
* **Throughput** — every pass renders and detects its captures on the
  process's DSP lanes (:mod:`repro.dsp.lanes`), so even one round uses
  a CPU per capture.
* **Backpressure** — at most ``max_inflight_rounds`` rounds are prepared
  or in DSP at once, and later rounds wait for a slot; since only a
  round holding a slot joins the DSP queue, the gate bounds the queue
  too.
* **Graceful shutdown** — draining finishes accepted streams, answers
  new requests with ``busy``, and closes the DSP threads.
* **Fail closed** — every failure path (deadline expiry, DSP timeout,
  worker crash, unexpected exception) produces a structured error
  reply, never a grant; under any injected fault schedule the granted
  set is a subset of the unfaulted run's and every completed decision
  is bit-identical to it.
"""

from __future__ import annotations

from repro import _lazy_exports

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

#: Where each exported name is defined; ``__getattr__`` imports it on
#: first access.
_EXPORTS = {
    "CalibrationStore": "repro.service.calibration",
    "CalibrationSummary": "repro.service.calibration",
    "robust_sigma": "repro.service.calibration",
    "AuthClient": "repro.service.client",
    "RetryPolicy": "repro.service.client",
    "ServedAuthentication": "repro.service.client",
    "ServiceError": "repro.service.client",
    "BusyOnce": "repro.service.faults",
    "DelayBatch": "repro.service.faults",
    "FaultInjector": "repro.service.faults",
    "FaultPlan": "repro.service.faults",
    "FrameFault": "repro.service.faults",
    "KillWorker": "repro.service.faults",
    "LoadgenReport": "repro.service.loadgen",
    "run_loadgen": "repro.service.loadgen",
    "ERROR_CODES": "repro.service.protocol",
    "MESSAGE_TYPES": "repro.service.protocol",
    "RETRIABLE_ERROR_CODES": "repro.service.protocol",
    "CalibrateReply": "repro.service.protocol",
    "CalibrateRequest": "repro.service.protocol",
    "ErrorReply": "repro.service.protocol",
    "Message": "repro.service.protocol",
    "ProtocolError": "repro.service.protocol",
    "RangingRequest": "repro.service.protocol",
    "RequestComplete": "repro.service.protocol",
    "RoundDecision": "repro.service.protocol",
    "StatsReply": "repro.service.protocol",
    "StatsRequest": "repro.service.protocol",
    "decode_message": "repro.service.protocol",
    "encode_message": "repro.service.protocol",
    "BatchingScheduler": "repro.service.scheduler",
    "DeadlineExceeded": "repro.service.scheduler",
    "SchedulerStats": "repro.service.scheduler",
    "ServiceOverloaded": "repro.service.scheduler",
    "AuthService": "repro.service.server",
    "aggregate_decision": "repro.service.server",
    "request_spec": "repro.service.server",
    "round_decision": "repro.service.server",
    "ShardedAuthServer": "repro.service.shard",
    "session_key": "repro.service.shard",
    "shard_for_session": "repro.service.shard",
}


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
