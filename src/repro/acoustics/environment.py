"""Named acoustic environments (the four scenarios of Fig. 1 + extras).

Each environment bundles a background-noise model and a reverberation
profile (the parameters of the random per-session channel filters).  The
presets aim at the paper-implied σ_d bands (office ≈ 7 cm, restaurant
≈ 10.7 cm, home ≈ 11.9 cm, street ≈ 15.8 cm) but land below them: the
full simulation measures office 5.8, home 8.6, street 10.1 and restaurant
8.6 cm at the paper's trial counts (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acoustics.noise import NoiseModel
from repro.dsp.filters import (
    ChannelFilter,
    random_channel_filter,
    random_dispersive_channel,
)

__all__ = ["ReverbProfile", "Environment", "ENVIRONMENTS", "get_environment"]


@dataclass(frozen=True)
class ReverbProfile:
    """Parameters of the random per-session acoustic channel.

    See :func:`repro.dsp.filters.random_channel_filter` for semantics.
    """

    n_reflections: int = 6
    max_spread_samples: int = 24
    reflection_strength: float = 0.45
    decay: float = 0.55
    group_delay_samples: int = 30
    ripple_db: float = 0.8

    def draw_channel(self, rng: np.random.Generator) -> ChannelFilter:
        """Realize one channel filter for a session.

        The channel is the cascade of the transducer-pair dispersion (a
        random bounded-group-delay allpass — the physical cause of the
        paper's *frequency smoothing*) and the room's sparse early
        reflections.
        """
        dispersive = random_dispersive_channel(
            rng,
            max_group_delay=self.group_delay_samples,
            ripple_db=self.ripple_db,
        )
        if self.n_reflections <= 0 or self.reflection_strength <= 0:
            return dispersive
        reflections = random_channel_filter(
            rng,
            n_reflections=self.n_reflections,
            max_spread_samples=self.max_spread_samples,
            reflection_strength=self.reflection_strength,
            decay=self.decay,
        )
        return ChannelFilter(taps=np.convolve(dispersive.taps, reflections.taps))

    def scaled(self, factor: float) -> "ReverbProfile":
        """A copy with reflection strength scaled (for ablations)."""
        return ReverbProfile(
            n_reflections=self.n_reflections,
            max_spread_samples=self.max_spread_samples,
            reflection_strength=self.reflection_strength * factor,
            decay=self.decay,
            group_delay_samples=self.group_delay_samples,
            ripple_db=self.ripple_db,
        )

    def self_path(self) -> "ReverbProfile":
        """The same transducer dispersion with minimal room reverberation.

        A device hearing its own speaker shares the environment's
        *dispersion* statistics (it is a property of the transducer chain),
        which is what lets the mean group delay cancel out of Eq. 3.
        """
        return ReverbProfile(
            n_reflections=min(2, self.n_reflections),
            max_spread_samples=min(6, self.max_spread_samples),
            reflection_strength=0.5 * self.reflection_strength,
            decay=self.decay,
            group_delay_samples=self.group_delay_samples,
            ripple_db=self.ripple_db,
        )


@dataclass(frozen=True)
class Environment:
    """A named acoustic scene: noise plus reverberation.

    Attributes
    ----------
    name:
        Registry key ("office", "home", "street", "restaurant", …).
    noise:
        Background-noise model of the scene.
    reverb:
        Cross-device channel reverberation profile.
    description:
        One-line human description used in reports.
    """

    name: str
    noise: NoiseModel
    reverb: ReverbProfile
    description: str = ""

    def with_noise_scale(self, factor: float) -> "Environment":
        """A copy with the noise scaled (ablation helper)."""
        return Environment(
            name=f"{self.name}(noise×{factor:g})",
            noise=self.noise.scaled(factor),
            reverb=self.reverb,
            description=self.description,
        )


OFFICE = Environment(
    name="office",
    noise=NoiseModel(
        low_freq_std=900.0, low_freq_cutoff_hz=3500.0, broadband_std=155.0
    ),
    reverb=ReverbProfile(
        n_reflections=4, max_spread_samples=14, reflection_strength=0.06, group_delay_samples=28
    ),
    description="shared office: HVAC hum, keyboards, quiet speech",
)

HOME = Environment(
    name="home",
    noise=NoiseModel(
        low_freq_std=1300.0, low_freq_cutoff_hz=4000.0, broadband_std=310.0
    ),
    reverb=ReverbProfile(
        n_reflections=5, max_spread_samples=20, reflection_strength=0.07, group_delay_samples=34
    ),
    description="living room: TV, appliances, hard reflective surfaces",
)

STREET = Environment(
    name="street",
    noise=NoiseModel(
        low_freq_std=2600.0, low_freq_cutoff_hz=3000.0, broadband_std=375.0
    ),
    reverb=ReverbProfile(
        n_reflections=3, max_spread_samples=10, reflection_strength=0.07, group_delay_samples=40
    ),
    description="sidewalk: cars and passersby, heavy low-frequency noise",
)

RESTAURANT = Environment(
    name="restaurant",
    noise=NoiseModel(
        low_freq_std=1700.0, low_freq_cutoff_hz=4500.0, broadband_std=295.0
    ),
    reverb=ReverbProfile(
        n_reflections=4, max_spread_samples=18, reflection_strength=0.07, group_delay_samples=30
    ),
    description="restaurant: chatter and clatter, reverberant room",
)

QUIET_LAB = Environment(
    name="quiet_lab",
    noise=NoiseModel(
        low_freq_std=120.0, low_freq_cutoff_hz=2000.0, broadband_std=10.0
    ),
    reverb=ReverbProfile(
        n_reflections=2, max_spread_samples=8, reflection_strength=0.04, group_delay_samples=8
    ),
    description="near-silent lab bench (used for calibration and tests)",
)

ENVIRONMENTS: dict[str, Environment] = {
    env.name: env for env in (OFFICE, HOME, STREET, RESTAURANT, QUIET_LAB)
}

#: The four environments evaluated in Fig. 1, in the paper's order.
FIGURE1_ENVIRONMENTS = (OFFICE, HOME, STREET, RESTAURANT)


def get_environment(name: str) -> Environment:
    """Look up an environment preset by name."""
    try:
        return ENVIRONMENTS[name]
    except KeyError:
        known = ", ".join(sorted(ENVIRONMENTS))
        raise KeyError(f"unknown environment {name!r}; known: {known}") from None
