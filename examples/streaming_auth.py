"""Streaming authentication: concurrent clients against the auth service.

Starts the asyncio authentication service (``repro.service``) on an
ephemeral localhost port, connects one client, and fires several
authentication requests **concurrently** over the single connection:

* the user's watch on the desk (0.8 m) — should be granted;
* a colleague's phone across the office (2.5 m) — denied: over the 1 m
  threshold;
* a device in the next room (6.0 m) — denied: too far for the acoustic
  signal.

Per-round ranging decisions stream back as soon as each round's DSP
completes; because the requests are in flight together, the service
coalesces their rounds into shared DSP passes, each capture on a DSP
lane (watch the ``rounds_per_batch`` stat at the end).

Run with::

    python examples/streaming_auth.py [--quick]
"""

import argparse
import asyncio

from repro.service import (
    AuthClient,
    AuthService,
    RequestComplete,
    RoundDecision,
)

SCENARIOS = [
    ("watch-on-desk", 0.8),
    ("colleague-phone", 2.5),
    ("next-room", 6.0),
]


async def authenticate_one(
    client: AuthClient, label: str, distance_m: float, rounds: int
) -> bool:
    """Stream one request's decisions, printing them as they arrive."""
    granted = False
    async for message in client.request(
        environment="office",
        distance_m=distance_m,
        seed=2017,
        rounds=rounds,
        threshold_m=1.0,
        request_id=label,
    ):
        if isinstance(message, RoundDecision):
            estimate = (
                f"{message.distance_m:.3f} m"
                if message.distance_m is not None
                else "⊥ (not present)"
            )
            print(
                f"  [{label}] round {message.round_index}: "
                f"{message.status} — {estimate}"
            )
        elif isinstance(message, RequestComplete):
            granted = message.granted
            verdict = "GRANT" if granted else f"DENY [{message.reason}]"
            print(f"  [{label}] ==> {verdict}")
    return granted


async def run(rounds: int) -> None:
    service = AuthService(batch_size=8, linger_ms=10.0)
    async with service:
        server = await service.serve("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        print(f"service listening on 127.0.0.1:{port}\n")

        async with await AuthClient.connect("127.0.0.1", port) as client:
            results = await asyncio.gather(
                *(
                    authenticate_one(client, label, distance, rounds)
                    for label, distance in SCENARIOS
                )
            )

        stats = service.scheduler.stats
        print(
            f"\nscheduler: {stats.rounds} rounds in {stats.batches} "
            f"DSP passes ({stats.rounds_per_batch:.1f} rounds/batch, "
            f"largest {stats.largest_batch})"
        )
        server.close()
        await server.wait_closed()

    assert results[0], "the nearby watch must be granted"
    assert not results[1], "a device past the threshold must be denied"
    assert not results[2], "a device in the next room must be denied"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one round per request (CI smoke mode)",
    )
    args = parser.parse_args(argv)
    asyncio.run(run(rounds=1 if args.quick else 2))


if __name__ == "__main__":
    main()
