"""Wire protocol of the streaming authentication service.

Four message types cross the wire, each a flat frozen dataclass with a
newline-delimited JSON encoding (one message per line):

* :class:`RangingRequest` — client → server: run ``rounds`` ACTION
  ranging rounds for one (environment, distance, seed) cell slice and
  apply the PIANO threshold rule;
* :class:`RoundDecision` — server → client, one per completed round,
  streamed as soon as the round's outcome exists;
* :class:`RequestComplete` — server → client, the aggregate PIANO
  grant/deny decision terminating the stream;
* :class:`ErrorReply` — server → client when a request cannot produce a
  decision.  It also terminates the stream.  ``code`` comes from
  :data:`ERROR_CODES`; the codes in :data:`RETRIABLE_ERROR_CODES`
  (``busy``, ``timeout``, ``unavailable``) invite an idempotent retry —
  every round is a pure function of ``(session, trial)``, so a retried
  request reproduces the original decision bit for bit on any worker.  Every error path fails **closed**: an
  error is never a grant.

Further messages carry operational traffic rather than authentication
rounds: :class:`StatsRequest` asks for the server's cumulative scheduler
statistics and :class:`StatsReply` answers it — one reply per shard when
the sharded front tier is serving (``shards`` tells the client how many
replies to expect; ``repro.service.AuthClient.stats`` collects them).
Stats otherwise lost at process exit (batch-size histogram, linger
waits, queue high-water) thereby become observable to load generators
and operators over the same wire.  :class:`CalibrateRequest` /
:class:`CalibrateReply` read the server's per-deployment threshold
calibration (:mod:`repro.service.calibration`): the σ_d estimated from
served ranging evidence and the tightest τ meeting a target FRR — one
reply per tier, which the sharded router answers itself from the
decisions it forwarded.

This module is the stdlib-only wire layer: it imports nothing from the
simulator, so the shard router and the client stack that use it load
neither numpy nor scipy.  The request → trial mapping
(:func:`repro.service.server.request_spec`) and the aggregate PIANO rule
(:func:`repro.service.server.aggregate_decision`) live with the server.

Determinism contract: a request *is* a trial-engine cell description.
``request_spec`` maps it to the exact
:class:`~repro.eval.engine.TrialSpec` the CLI engine would run, and round
``i`` executes trial ``first_trial + i`` of that spec through the same
stage functions — so every served ``RoundDecision`` is bit-identical to
the corresponding CLI/engine trial (asserted in
``tests/test_service.py``).  JSON floats round-trip exactly (Python
serializes the shortest repr and parses it back to the same IEEE double),
so the wire layer preserves the bits too.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Union

__all__ = [
    "ERROR_CODES",
    "RETRIABLE_ERROR_CODES",
    "ProtocolError",
    "RangingRequest",
    "RoundDecision",
    "RequestComplete",
    "ErrorReply",
    "StatsRequest",
    "StatsReply",
    "CalibrateRequest",
    "CalibrateReply",
    "Message",
    "MESSAGE_TYPES",
    "encode_message",
    "decode_message",
]


class ProtocolError(ValueError):
    """A wire message could not be decoded or validated."""


#: The failure-mode vocabulary of :class:`ErrorReply.code` (the full
#: failure-mode → code table lives in ``docs/service.md``):
#:
#: * ``bad-request`` — malformed, mistyped, or unknown-field input; not
#:   retriable (the same bytes will fail the same way);
#: * ``busy`` — backpressure or draining; nothing was executed;
#: * ``timeout`` — the request's ``deadline_ms`` lapsed before its round
#:   was admitted to a DSP batch, or the DSP executor timed out; the
#:   round is denied (fail closed), never partially decided;
#: * ``unavailable`` — the shard worker serving the request exited
#:   mid-request (or every slot is restarting/crash-looped); nothing was
#:   replayed;
#: * ``internal-error`` — an unexpected exception; fail closed.
ERROR_CODES = (
    "bad-request",
    "busy",
    "timeout",
    "unavailable",
    "internal-error",
)

#: Codes a client should retry (with capped, jittered backoff).  Retries
#: are idempotent by request id: the decision of a successful retry is
#: bit-identical to what the original attempt would have produced.
RETRIABLE_ERROR_CODES = frozenset({"busy", "timeout", "unavailable"})


@dataclass(frozen=True)
class RangingRequest:
    """Client → server: authenticate by running ranging rounds.

    Attributes
    ----------
    request_id:
        Caller-chosen correlation token; every reply echoes it.
    environment:
        Registered environment preset name ("office", "home", ...).
    distance_m:
        True distance of the simulated device pair (the service runs on
        the simulated substrate; a hardware deployment would drop this).
    seed:
        Cell-level root seed; with ``environment`` and ``distance_m`` it
        fixes every round's randomness.
    rounds:
        How many ranging rounds to run (and stream back).  Rounds after
        the first act as retries when earlier rounds return ⊥, matching
        ``AuthConfig.max_retries`` semantics.
    first_trial:
        Trial index of the first round within the cell; round ``i`` is
        trial ``first_trial + i``.  Lets callers address disjoint slices
        of one cell (as the benchmark does).
    threshold_m:
        The PIANO acceptance threshold τ.
    deadline_ms:
        Per-request deadline budget in milliseconds, measured from
        server receipt; ``0`` (the default) disables it.  A round whose
        deadline lapses before it is admitted to a DSP batch fails
        closed with a ``timeout`` error — expiry is checked at batch
        admission only, never mid-batch, so batches stay deterministic.
    """

    request_id: str
    environment: str = "office"
    distance_m: float = 1.0
    seed: int = 0
    rounds: int = 1
    first_trial: int = 0
    threshold_m: float = 1.0
    deadline_ms: float = 0.0


@dataclass(frozen=True)
class RoundDecision:
    """Server → client: the outcome of one completed ranging round."""

    request_id: str
    round_index: int
    trial: int
    status: str
    distance_m: float | None
    accepted: bool
    elapsed_s: float
    energy_j: float


@dataclass(frozen=True)
class RequestComplete:
    """Server → client: the aggregate PIANO decision; ends the stream."""

    request_id: str
    granted: bool
    reason: str
    decided_round: int | None
    rounds: int
    distance_m: float | None


@dataclass(frozen=True)
class ErrorReply:
    """Server → client: the request failed; ends the stream.

    ``code`` is one of :data:`ERROR_CODES`; the subset
    :data:`RETRIABLE_ERROR_CODES` invites an idempotent retry.  An
    error is never a grant (fail closed).
    """

    request_id: str
    code: str
    message: str

    @property
    def retriable(self) -> bool:
        return self.code in RETRIABLE_ERROR_CODES


@dataclass(frozen=True)
class StatsRequest:
    """Client → server: report cumulative scheduler statistics."""

    request_id: str


@dataclass(frozen=True)
class StatsReply:
    """Server → client: one shard's cumulative scheduler statistics.

    ``shard``/``shards`` locate the reply within the sharded front tier
    (``0``/``1`` for a single-process server); a client should collect
    ``shards`` replies per request.  ``batch_histogram`` is the
    batch-size histogram rendered as ``"size:count,..."`` (ascending by
    size) — the wire messages are flat scalars by design, so the
    histogram travels as text.  ``deadline_expired`` counts rounds whose
    request deadline lapsed before batch admission; ``dsp_timeouts``
    counts DSP passes that exceeded the executor timeout (any
    non-zero value marks the executor *suspect*).
    """

    request_id: str
    shard: int
    shards: int
    rounds: int
    batches: int
    largest_batch: int
    queue_high_water: int
    linger_wait_s: float
    batch_histogram: str
    deadline_expired: int
    dsp_timeouts: int


@dataclass(frozen=True)
class CalibrateRequest:
    """Client → server: report the calibrated τ for one environment.

    ``target_frr_pct`` is the acceptable false-rejection rate in
    percent (wire-friendly; the calibration layer works in fractions).
    """

    request_id: str
    environment: str = "office"
    target_frr_pct: float = 5.0


@dataclass(frozen=True)
class CalibrateReply:
    """Server → client: a tier's calibration state for an environment.

    A tier answers once, as ``shard`` 0 of ``shards`` 1: the sharded
    router calibrates from every decision it forwarded, so the reply
    does not depend on the worker count.  ``sigma_m`` is the σ_d behind
    the picked ``threshold_m``; ``samples`` how many served ranging
    errors back it; ``source`` is ``"measured"`` (from served evidence)
    or ``"prior"`` (paper-implied σ, not enough traffic yet).
    """

    request_id: str
    shard: int
    shards: int
    environment: str
    threshold_m: float
    sigma_m: float
    samples: int
    target_frr_pct: float
    source: str


Message = Union[
    RangingRequest,
    RoundDecision,
    RequestComplete,
    ErrorReply,
    StatsRequest,
    StatsReply,
    CalibrateRequest,
    CalibrateReply,
]

#: Wire tag ↔ dataclass registry; the tag travels as the ``type`` field.
MESSAGE_TYPES: dict[str, type] = {
    "ranging_request": RangingRequest,
    "round_decision": RoundDecision,
    "request_complete": RequestComplete,
    "error": ErrorReply,
    "stats_request": StatsRequest,
    "stats_reply": StatsReply,
    "calibrate_request": CalibrateRequest,
    "calibrate_reply": CalibrateReply,
}
_TYPE_TAGS = {cls: tag for tag, cls in MESSAGE_TYPES.items()}


def _check_scalar(tag: str, name: str, value, annotation: str):
    """Validate (and normalize) one decoded field against its annotation.

    The messages are flat by design, so the full annotation vocabulary is
    four scalars plus ``| None``.  ``bool`` is rejected where a number is
    expected (it is an ``int`` subclass), and ints are accepted — and
    upcast — for float fields, as JSON does not distinguish ``1``/``1.0``.
    """
    optional = "None" in annotation
    if value is None:
        if optional:
            return None
    elif "str" in annotation:
        if isinstance(value, str):
            return value
    elif "bool" in annotation:
        if isinstance(value, bool):
            return value
    elif "int" in annotation:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif "float" in annotation:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    raise ProtocolError(
        f"bad type for {tag}.{name}: expected {annotation}, "
        f"got {type(value).__name__}"
    )


def encode_message(message: Message) -> str:
    """One JSON line (no trailing newline) for ``message``."""
    tag = _TYPE_TAGS.get(type(message))
    if tag is None:
        raise ProtocolError(f"not a wire message: {type(message).__name__}")
    payload = {"type": tag, **asdict(message)}
    return json.dumps(payload, separators=(",", ":"))


def decode_message(line: str | bytes) -> Message:
    """Parse one JSON line back into its message dataclass.

    Strict by design: unknown ``type`` tags, missing fields, extra
    fields, and mistyped scalars all raise :class:`ProtocolError`, so a
    version drift between client and server fails loudly instead of
    being silently defaulted.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    tag = payload.pop("type", None)
    cls = MESSAGE_TYPES.get(tag)
    if cls is None:
        raise ProtocolError(f"unknown message type: {tag!r}")
    expected = {f.name: f for f in fields(cls)}
    missing = expected.keys() - payload.keys()
    extra = payload.keys() - expected.keys()
    if missing or extra:
        raise ProtocolError(
            f"bad fields for {tag}: missing={sorted(missing)}, "
            f"unknown={sorted(extra)}"
        )
    checked = {
        name: _check_scalar(tag, name, value, str(expected[name].type))
        for name, value in payload.items()
    }
    return cls(**checked)
