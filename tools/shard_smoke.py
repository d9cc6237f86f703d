"""CI smoke: the sharded front tier is byte-identical to one process.

Serves the same request set through ``python -m repro serve``'s
machinery at ``--workers 1`` (one ``AuthService``) and ``--workers 2``
(the router and two spawned worker processes), over real TCP, and
asserts that each request's raw reply lines are byte-for-byte equal.  Then it sends ``calibrate`` and asserts that both
tiers answer with one reply, byte for byte the same: the router
calibrates from every decision it forwarded, whichever worker served
it.  This is the deployment contract of
``docs/service.md#the-multi-process-serving-tier``: adding workers may
only change throughput, never bits.

It also fails when asyncio reports a task "destroyed but it is pending":
the router must keep each connection handler alive until its sockets are
closed, so the smoke hangs up once with a request in flight and collects
garbage while the router still owes that client its replies.

Run with ``PYTHONPATH=src python tools/shard_smoke.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys

from repro.service import (
    AuthService,
    CalibrateRequest,
    RangingRequest,
    ShardedAuthServer,
)
from repro.service.protocol import encode_message

#: Sessions in the request set, sent together so both shards serve.
SESSIONS = 4


def frame(message) -> bytes:
    return (encode_message(message) + "\n").encode("utf-8")


async def served_lines(
    workers: int, requests: list[RangingRequest]
) -> tuple[dict[str, list[bytes]], bytes]:
    """Per request id, its raw reply lines; then the ``calibrate`` reply.

    ``workers`` picks the topology the way ``repro serve --workers``
    does: one process at 1, the sharded tier above.
    """
    tier = AuthService() if workers == 1 else ShardedAuthServer(workers)
    async with tier:
        server = await tier.serve("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(b"".join(frame(request) for request in requests))
            await writer.drain()
            lines: dict[str, list[bytes]] = {}
            open_ids = {request.request_id for request in requests}
            while open_ids:
                line = await reader.readline()
                if not line:
                    raise RuntimeError("server closed before request_complete")
                reply = json.loads(line)
                lines.setdefault(reply["request_id"], []).append(line)
                if reply["type"] in ("request_complete", "error"):
                    open_ids.discard(reply["request_id"])
        finally:
            writer.close()
            await writer.wait_closed()
        # Hang up with the request in flight again and collect garbage
        # while the router still owes this client its replies: a
        # connection handler the router does not keep alive dies here.
        # Its rounds repeat the first request's, so they count once.
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(frame(requests[0]))
        await writer.drain()
        writer.close()
        await writer.wait_closed()
        await asyncio.sleep(0.02)
        gc.collect()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(frame(CalibrateRequest("shard-smoke-calibrate")))
        await writer.drain()
        calibration = await reader.readline()
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return lines, calibration


async def run_smoke(rounds: int) -> int:
    destroyed: list[str] = []

    def report(loop: asyncio.AbstractEventLoop, context: dict) -> None:
        if context.get("message") == "Task was destroyed but it is pending!":
            destroyed.append(repr(context.get("task")))
        loop.default_exception_handler(context)

    asyncio.get_running_loop().set_exception_handler(report)
    requests = [
        RangingRequest(
            request_id=f"shard-smoke-{seed}",
            environment="office",
            distance_m=1.0,
            seed=seed,
            rounds=rounds,
            threshold_m=2.0,
        )
        for seed in range(SESSIONS)
    ]
    single, single_calibration = await served_lines(1, requests)
    sharded, sharded_calibration = await served_lines(2, requests)
    if single != sharded:
        print("FAIL: workers=2 reply bytes differ from workers=1", file=sys.stderr)
        for request_id in sorted(single):
            for a, b in zip(single[request_id], sharded.get(request_id, [])):
                if a != b:
                    print(f"  workers=1: {a!r}", file=sys.stderr)
                    print(f"  workers=2: {b!r}", file=sys.stderr)
        return 1
    if single_calibration != sharded_calibration:
        print(
            "FAIL: workers=2 calibrate reply differs from workers=1",
            file=sys.stderr,
        )
        print(f"  workers=1: {single_calibration!r}", file=sys.stderr)
        print(f"  workers=2: {sharded_calibration!r}", file=sys.stderr)
        return 1
    gc.collect()
    if destroyed:
        print("FAIL: pending tasks were destroyed:", file=sys.stderr)
        for task in destroyed:
            print(f"  {task}", file=sys.stderr)
        return 1
    errored = [
        lines[-1]
        for lines in single.values()
        if b'"request_complete"' not in lines[-1]
    ]
    if errored:
        print("FAIL: a request errored instead of completing", file=sys.stderr)
        print(errored[0].decode("utf-8", "replace"), file=sys.stderr)
        return 1
    calibration = json.loads(single_calibration)
    if calibration["type"] != "calibrate_reply":
        print(f"FAIL: calibrate answered {calibration}", file=sys.stderr)
        return 1
    total = sum(len(lines) for lines in single.values())
    print(
        f"shard smoke ok: {total} reply lines of {len(requests)} requests "
        f"and one calibrate reply ({calibration['samples']} samples, "
        f"{calibration['source']}) byte-identical at workers 1 and 2"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=2, help="ranging rounds per request"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return asyncio.run(run_smoke(args.rounds))


if __name__ == "__main__":
    raise SystemExit(main())
