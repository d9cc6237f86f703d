"""Seeded inputs for the serve workloads: sessions and request streams.

The benchmark owns every random draw; the program only ever sees the
generated requests.  Both serve workloads are closed loops fed by one
generator, ``closed_stream``, so their figures describe the same kind of
traffic and differ only in the session pool, the session law, the round
count and the number of clients:

* serve-light draws uniformly from the Fig. 1 pool (``light_sessions``);
* serve-hot draws from a Zipf law over a small pool of hot ``home``
  sessions (``hot_sessions``): a few devices re-authenticating
  continuously.  Every :data:`HOT_ROTATE_EVERY` requests the Zipf ranks
  are dealt anew over the same pool, so which devices are hot shifts
  during a run.  A server that pins sessions to shards then meets
  several skews per run instead of one per seed, so a run's capacity
  reflects the typical skew rather than the luck of one draw (with one
  fixed ranking, the busiest shard's share ranged 0.50–0.80 across seeds
  and throughput with it).

Every request addresses fresh trials: a per-session counter advances
``first_trial`` by the request's round count, so no two requests of a
run ever ask for the same (session, trial).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "DISTANCES_M",
    "ENVIRONMENTS",
    "HOT_ROTATE_EVERY",
    "HOT_SESSIONS",
    "LIGHT_SEEDS",
    "Request",
    "Session",
    "closed_stream",
    "hot_sessions",
    "light_sessions",
    "warmup_requests",
]

#: Closed-loop requests between re-deals of the session ranking.
HOT_ROTATE_EVERY = 64
#: Session seeds per Fig. 1 cell in the light pool, and hot sessions.
LIGHT_SEEDS = 64
HOT_SESSIONS = 32

#: The four Fig. 1 environments and distances.
ENVIRONMENTS = ("office", "home", "street", "restaurant")
DISTANCES_M = (0.5, 1.0, 1.5, 2.0)


@dataclass(frozen=True)
class Session:
    """One device pair: the cell every request of the session addresses."""

    environment: str
    distance_m: float
    seed: int


@dataclass(frozen=True)
class Request:
    """One generated request, sent by whichever client is free."""

    index: int
    session: Session
    first_trial: int
    rounds: int

    def fields(self) -> dict:
        """Keyword arguments for ``AuthClient.authenticate``."""
        return dict(
            environment=self.session.environment,
            distance_m=self.session.distance_m,
            seed=self.session.seed,
            rounds=self.rounds,
            first_trial=self.first_trial,
        )


def _rng(seed: int, stream: str) -> random.Random:
    # String seeds hash through SHA-512: stable across processes and
    # independent of PYTHONHASHSEED.
    return random.Random(f"perfbench:{stream}:{seed}")


def _session_seeds(rng: random.Random, count: int) -> list[int]:
    seeds: list[int] = []
    while len(seeds) < count:
        value = rng.randrange(1, 2**31)
        if value not in seeds:
            seeds.append(value)
    return seeds


def light_sessions(seed: int) -> list[Session]:
    """The Fig. 1 session pool: 4 environments × 4 distances × :data:`LIGHT_SEEDS`."""
    pool = _session_seeds(_rng(seed, "light-seeds"), LIGHT_SEEDS)
    return [
        Session(environment, distance, session_seed)
        for environment in ENVIRONMENTS
        for distance in DISTANCES_M
        for session_seed in pool
    ]


def hot_sessions(seed: int) -> list[Session]:
    """:data:`HOT_SESSIONS` ``home`` sessions at seeded Fig. 1 distances."""
    rng = _rng(seed, "hot-sessions")
    pool = _session_seeds(rng, HOT_SESSIONS)
    return [
        Session("home", rng.choice(DISTANCES_M), session_seed)
        for session_seed in pool
    ]


def closed_stream(
    seed: int, sessions: list[Session], zipf_s: float, rounds: int
) -> Iterator[Request]:
    """Endless requests with Zipf(``zipf_s``)-drawn sessions.

    Rank ``k`` (1-based) has weight ``k ** -zipf_s`` (``zipf_s = 0``
    draws uniformly); the ranking is a seeded shuffle of ``sessions``,
    dealt again every :data:`HOT_ROTATE_EVERY` requests.
    """
    rng = _rng(seed, "closed-stream")
    weights = [1.0 / (rank**zipf_s) for rank in range(1, len(sessions) + 1)]
    ranking = list(sessions)
    trials: dict[Session, int] = {}
    index = 0
    while True:
        if index % HOT_ROTATE_EVERY == 0:
            rng.shuffle(ranking)
        session = rng.choices(ranking, weights=weights)[0]
        first = trials.get(session, 0)
        trials[session] = first + rounds
        yield Request(index=index, session=session, first_trial=first, rounds=rounds)
        index += 1


def warmup_requests(seed: int, count: int, rounds: int, sessions: list[Session]) -> list[Request]:
    """Warm-up traffic over the pool's environments, on sessions of its own.

    Warm-up seeds come from their own stream and sit above ``2**31``, so
    no measured (session, trial) is computed before its window.
    """
    rng = _rng(seed, "warmup")
    environments = sorted({session.environment for session in sessions})
    requests = []
    for index in range(count):
        session = Session(
            environments[index % len(environments)],
            DISTANCES_M[index % len(DISTANCES_M)],
            2**31 + rng.randrange(2**30),
        )
        requests.append(Request(index, session, 0, rounds))
    return requests
