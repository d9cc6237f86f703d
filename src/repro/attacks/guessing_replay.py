"""Guessing-based replay attacks (§V).

The attacker knows the candidate set F_R and the construction algorithm but
not the session's sampled subsets (they travel encrypted).  The attack:
synthesize guessed reference signals with the legitimate generator and play
them near the authenticating device, hoping to be mistaken for the vouching
device's S_V (and to have the vouching device hear a matching S_A — which
it cannot, being out of acoustic range).

§V's analysis: guessing one signal's subset succeeds with probability
1/(2^N − 2) ≈ 2^{−N}; a full replay needs two correct guesses.  The paper
states the joint probability as 1/2^{N+1}; the stated sampling procedure
gives 1/(2^N − 2)² — we implement the exact combinatorics in
:func:`guess_success_probability` and report both (see DESIGN.md note 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acoustics.mixer import PlaybackEvent
from repro.attacks.base import Attack
from repro.core.signal_construction import construct_reference_signal
from repro.dsp.quantize import quantize_pcm16

__all__ = [
    "GuessingReplayAttack",
    "guess_success_probability",
    "paper_guess_success_probability",
]


def guess_success_probability(n_candidates: int, signals: int = 2) -> float:
    """Exact probability of guessing ``signals`` frequency subsets.

    The constructor samples a non-empty proper subset of the N candidates
    (0 < n < N), so there are ``2^N − 2`` admissible subsets.  Guessing via
    the same procedure succeeds per signal with probability ``1/(2^N − 2)``
    when the guess is drawn uniformly over admissible subsets.
    """
    if n_candidates < 2:
        raise ValueError("need at least two candidates")
    admissible = 2**n_candidates - 2
    return float((1.0 / admissible) ** signals)


def paper_guess_success_probability(n_candidates: int) -> float:
    """The probability as printed in §V: 1/2^(N+1)."""
    return float(1.0 / 2 ** (n_candidates + 1))


@dataclass
class GuessingReplayAttack(Attack):
    """Play freshly guessed reference signals near the victim device.

    The attacker plays two guesses (standing in for S_A and S_V) spaced
    like the legitimate schedule, looping once, at full volume.
    """

    n_guesses: int = 2

    def playbacks(
        self, window_start: float, window_end: float, rng: np.random.Generator
    ) -> list[PlaybackEvent]:
        events = []
        span = max(window_end - window_start, 0.2)
        for i in range(self.n_guesses):
            guess = construct_reference_signal(self.config, rng)
            waveform = quantize_pcm16(self.attacker.speaker.radiate(guess.samples))
            start = window_start + span * (0.25 + 0.4 * i)
            events.append(
                PlaybackEvent(
                    device=self.attacker,
                    waveform=waveform,
                    world_start=start,
                    label=f"replay-guess-{i}",
                )
            )
        return events
