"""CI smoke: the sharded front tier is byte-identical to one process.

Serves the same ranging request through ``python -m repro serve``'s
machinery at ``--workers 1`` and ``--workers 2`` (real TCP, real spawned
worker processes) and asserts the raw reply lines are byte-for-byte
equal.  This is the deployment contract of
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
import sys

from repro.service import RangingRequest, ShardedAuthServer
from repro.service.protocol import encode_message


async def served_reply_lines(workers: int, request: RangingRequest) -> list[bytes]:
    """Raw reply lines for ``request`` through a ``workers``-wide tier."""
    async with ShardedAuthServer(workers) as front:
        server = await front.serve("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        frame = (encode_message(request) + "\n").encode("utf-8")
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(frame)
            await writer.drain()
            lines: list[bytes] = []
            while True:
                line = await reader.readline()
                if not line:
                    raise RuntimeError("server closed before request_complete")
                lines.append(line)
                if b'"request_complete"' in line or b'"error"' in line:
                    break
        finally:
            writer.close()
            await writer.wait_closed()
        # Hang up with the request in flight again and collect garbage
        # while the router still owes this client its replies: a
        # connection handler the router does not keep alive dies here.
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(frame)
        await writer.drain()
        writer.close()
        await writer.wait_closed()
        await asyncio.sleep(0.02)
        gc.collect()
        server.close()
        await server.wait_closed()
        return lines


async def run_smoke(rounds: int) -> int:
    destroyed: list[str] = []

    def report(loop: asyncio.AbstractEventLoop, context: dict) -> None:
        if context.get("message") == "Task was destroyed but it is pending!":
            destroyed.append(repr(context.get("task")))
        loop.default_exception_handler(context)

    asyncio.get_running_loop().set_exception_handler(report)
    request = RangingRequest(
        request_id="shard-smoke",
        environment="office",
        distance_m=1.0,
        seed=0,
        rounds=rounds,
        threshold_m=2.0,
    )
    single = await served_reply_lines(1, request)
    sharded = await served_reply_lines(2, request)
    if single != sharded:
        print("FAIL: workers=2 reply bytes differ from workers=1", file=sys.stderr)
        for a, b in zip(single, sharded):
            if a != b:
                print(f"  workers=1: {a!r}", file=sys.stderr)
                print(f"  workers=2: {b!r}", file=sys.stderr)
        return 1
    gc.collect()
    if destroyed:
        print("FAIL: pending tasks were destroyed:", file=sys.stderr)
        for task in destroyed:
            print(f"  {task}", file=sys.stderr)
        return 1
    if any(b'"error"' in line for line in single):
        print("FAIL: the request errored instead of completing", file=sys.stderr)
        print(single[-1].decode("utf-8", "replace"), file=sys.stderr)
        return 1
    print(
        f"shard smoke ok: {len(single)} reply lines byte-identical "
        f"at workers 1 and 2"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=2, help="ranging rounds per request"
    )
    args = parser.parse_args(argv)
    return asyncio.run(run_smoke(args.rounds))


if __name__ == "__main__":
    raise SystemExit(main())
