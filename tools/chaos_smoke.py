"""CI chaos smoke: SIGKILL a shard worker mid-load, verify self-healing.

Runs the same request mix twice through a two-worker
:class:`~repro.service.ShardedAuthServer` over real TCP:

1. **unfaulted** — no faults, no retries; records every decision's bits
   per session;
2. **faulted** — a :class:`~repro.service.FaultPlan` SIGKILLs one worker
   after its third routed request while concurrent clients are mid-load,
   and every client carries a :class:`~repro.service.RetryPolicy`.  The
   router sends the retries to the live worker; once the supervisor has
   respawned the killed one, the same mix runs again on the healed
   tier.

The smoke then asserts the self-healing contract of
``docs/service.md#fault-tolerance``:

* the supervisor respawned the killed worker (``total_respawns >= 1``)
  and the respawned worker served rounds;
* **zero hung requests** — every request reached a terminal reply
  within a hard wall-clock budget (in-flight requests on the dead shard
  got structured retriable errors, not silence);
* every completed decision, before and after the respawn, is
  **byte-identical** to the unfaulted run, so the granted set under the
  fault schedule equals (and is therefore a subset of) the unfaulted
  one.

Run with ``PYTHONPATH=src python tools/chaos_smoke.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.service import (
    AuthClient,
    FaultPlan,
    KillWorker,
    RangingRequest,
    RetryPolicy,
    ShardedAuthServer,
    session_key,
    shard_for_session,
)

ENV = "quiet_lab"
WORKERS = 2
#: Hard wall-clock budget for the whole faulted client phase — the
#: "zero hung requests" assertion.  Generous because a respawned spawn
#: worker pays full package import on a cold shared runner.
HANG_BUDGET_S = 120.0


def request_mix(sessions: int, repeats: int) -> list[RangingRequest]:
    """``sessions`` distinct cells, each requested ``repeats`` times.

    Repeats matter: requests on the same session are answered by
    whichever worker owes the fewest rounds, and every answer must carry
    the same bits.
    """
    requests = []
    for repeat in range(repeats):
        for session in range(sessions):
            requests.append(
                RangingRequest(
                    request_id=f"chaos-{repeat}-{session}",
                    environment=ENV,
                    distance_m=0.8 + 0.1 * session,
                    seed=session,
                    rounds=2,
                    threshold_m=2.0,
                )
            )
    return requests


def decision_bits(served) -> tuple:
    """Everything decision-carrying in a served stream, exactly."""
    return (
        tuple(
            (
                decision.round_index,
                decision.trial,
                decision.status,
                decision.distance_m,
                decision.accepted,
                decision.elapsed_s,
                decision.energy_j,
            )
            for decision in served.rounds
        ),
        served.complete.granted,
        served.complete.reason,
        served.complete.decided_round,
    )


async def run_requests(
    port: int,
    requests: list[RangingRequest],
    retry: RetryPolicy | None,
    connections: int,
) -> dict[str, tuple]:
    """Drive ``requests`` over ``connections`` clients; session → bits."""
    queue: asyncio.Queue = asyncio.Queue()
    for request in requests:
        queue.put_nowait(request)
    results: dict[str, tuple] = {}

    async def client_loop() -> None:
        async with await AuthClient.connect("127.0.0.1", port) as client:
            while True:
                try:
                    request = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                served = await client.authenticate(
                    retry=retry,
                    request_id=request.request_id,
                    environment=request.environment,
                    distance_m=request.distance_m,
                    seed=request.seed,
                    rounds=request.rounds,
                    threshold_m=request.threshold_m,
                )
                key = session_key(request)
                bits = decision_bits(served)
                if results.setdefault(key, bits) != bits:
                    raise AssertionError(
                        f"session {key} answered differently across "
                        f"requests: {results[key]} != {bits}"
                    )

    await asyncio.gather(*(client_loop() for _ in range(connections)))
    return results


async def serve_and_run(
    fault_plan: FaultPlan | None,
    requests: list[RangingRequest],
    retry: RetryPolicy | None,
    connections: int,
) -> tuple[dict[str, tuple], int, list[int]]:
    """Serve ``requests``; with a fault plan, serve them again once the
    killed worker is back.  Returns session → bits (both passes must
    agree), the respawn count and, per shard, the rounds its current
    worker served."""
    front = ShardedAuthServer(
        WORKERS,
        fault_plan=fault_plan,
        respawn_backoff_s=0.1,
    )
    async with front:
        server = await front.serve("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]

        async def run_all() -> dict[str, tuple]:
            results = await run_requests(port, requests, retry, connections)
            if fault_plan is None:
                return results
            # The router stops sending work to the dead slot, so the mix
            # can finish before the respawn does: wait for it, then run
            # the mix on the healed tier.
            while front.total_respawns < 1:
                await asyncio.sleep(0.05)
            healed = await run_requests(port, requests, retry, connections)
            for key, bits in healed.items():
                if results.setdefault(key, bits) != bits:
                    raise AssertionError(
                        f"session {key} answered differently after the "
                        f"respawn: {results[key]} != {bits}"
                    )
            return results

        results = await asyncio.wait_for(run_all(), HANG_BUDGET_S)
        respawns = front.total_respawns
        async with await AuthClient.connect("127.0.0.1", port) as client:
            served = [reply.rounds for reply in await client.stats()]
        # Every request ended, so every owed round must settle, however
        # its request ended (completed, killed, retried elsewhere).
        for _ in range(100):
            if not any(front.owed_rounds):
                break
            await asyncio.sleep(0.05)
        else:
            raise AssertionError(
                f"owed rounds never settled: {front.owed_rounds}"
            )
        server.close()
        await server.wait_closed()
    return results, respawns, served


async def run_smoke(sessions: int, repeats: int, connections: int) -> int:
    requests = request_mix(sessions, repeats)
    target_shard = shard_for_session(session_key(requests[0]), WORKERS)
    plan = FaultPlan(
        kill_workers=(KillWorker(shard=target_shard, after_requests=3),)
    )
    retry = RetryPolicy(
        attempts=8,
        base_backoff_s=0.2,
        max_backoff_s=2.0,
        attempt_timeout_s=60.0,
    )

    print(
        f"chaos smoke: {len(requests)} requests over {sessions} sessions, "
        f"SIGKILL shard {target_shard} after 3 routed requests"
    )
    baseline, baseline_respawns, _ = await serve_and_run(
        None, requests, None, connections
    )
    if baseline_respawns != 0:
        print(
            f"FAIL: unfaulted run respawned {baseline_respawns} workers",
            file=sys.stderr,
        )
        return 1

    try:
        faulted, respawns, served = await serve_and_run(
            plan, requests, retry, connections
        )
    except asyncio.TimeoutError:
        print(
            f"FAIL: faulted run had requests still hung after "
            f"{HANG_BUDGET_S:.0f}s",
            file=sys.stderr,
        )
        return 1

    if respawns < 1:
        print("FAIL: worker was never respawned", file=sys.stderr)
        return 1
    if served[target_shard] == 0:
        print(
            f"FAIL: the respawned shard {target_shard} served no rounds",
            file=sys.stderr,
        )
        return 1
    if set(faulted) != set(baseline):
        print(
            f"FAIL: session coverage differs: faulted served "
            f"{sorted(faulted)} vs {sorted(baseline)}",
            file=sys.stderr,
        )
        return 1
    mismatched = [key for key in baseline if faulted[key] != baseline[key]]
    if mismatched:
        for key in mismatched:
            print(f"FAIL: session {key} decisions differ", file=sys.stderr)
            print(f"  unfaulted: {baseline[key]}", file=sys.stderr)
            print(f"  faulted:   {faulted[key]}", file=sys.stderr)
        return 1

    granted = sum(1 for bits in faulted.values() if bits[1])
    print(
        f"chaos smoke ok: {respawns} respawn(s), {2 * len(requests)} "
        f"requests all terminal ({served[target_shard]} rounds on the "
        f"respawned worker), {len(baseline)} sessions byte-identical to "
        f"the unfaulted run ({granted} granted)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sessions", type=int, default=4, help="distinct session cells"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="requests per session"
    )
    parser.add_argument(
        "--connections",
        type=int,
        default=3,
        help="concurrent client connections",
    )
    args = parser.parse_args(argv)
    return asyncio.run(
        run_smoke(args.sessions, args.repeats, args.connections)
    )


if __name__ == "__main__":
    raise SystemExit(main())
