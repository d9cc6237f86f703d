"""The §VI-C authentication-accuracy model: FRR and FAR from σ_d.

Given a true distance ``d`` the estimated distance is modeled as
``N(d, σ_d²)`` with σ_d constant (the paper verifies both assumptions on
its measurements; our Fig.-1 experiment does the same for the simulator).

* ``FRR(τ)`` — average over legitimate distances ``d ∈ (0, τ]`` of
  ``P(estimate > τ)``;
* ``FAR(τ)`` — average over illegitimate distances ``d ∈ (τ, R_bt]`` of
  ``P(estimate ≤ τ)``, with two hard gates: beyond the maximum acoustic
  range ``d_s ≈ 2.5 m`` the signal is declared not-present (deny without
  estimating), and beyond the Bluetooth range ``R_bt ≈ 10 m`` pairing
  fails, so FAR ≡ 0 there (§VI-C).

With the paper's σ_d values these formulas reproduce 19 of the 20 FRR
cells of Table I and 17 of the 20 FAR cells of Table II to the printed
decimal, and every cell within 0.15 points (DESIGN.md §6 lists the four
others).

The Gaussian tails come from ``scipy.special.ndtr``, the function behind
scipy's standard normal distribution: its ``sf(x)`` is ``ndtr(-x)`` and
its ``cdf(x)`` is ``ndtr(x)``, bit for bit, without loading scipy's
statistics package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = ["GaussianAuthModel", "THRESHOLDS_M", "PAPER_SIGMAS_M"]


def _arange_length(start: float, stop: float, step: float) -> int:
    """Length of ``np.arange(start, stop, step)`` without materializing it.

    Mirrors numpy's own computation (``ceil((stop - start) / step)`` in
    float64), so ``base[:_arange_length(...)]`` is bit-identical to the
    shorter ``arange`` — arange values depend only on start, step, and
    index, never on stop.
    """
    return max(int(np.ceil((stop - start) / step)), 0)

#: The four authentication thresholds of Tables I/II, in meters.
THRESHOLDS_M = (0.5, 1.0, 1.5, 2.0)

#: σ_d per scenario implied by the paper's Table I (FRR(τ) ≈ 0.3989·σ/τ,
#: back-solved from the τ = 0.5 m column and consistent with the rest).
PAPER_SIGMAS_M = {
    "office": 0.0702,
    "home": 0.1191,
    "street": 0.1579,
    "restaurant": 0.1065,
    "multiple users": 0.0990,
}


@dataclass(frozen=True)
class GaussianAuthModel:
    """FRR/FAR calculator for one scenario.

    Attributes
    ----------
    sigma_m:
        σ_d of the scenario (measured or paper-implied).
    max_range_m:
        d_s — beyond it ranging returns ⊥ and PIANO denies (§VI-B).
    bluetooth_range_m:
        Pairing gate; FAR is averaged over (τ, bluetooth_range].
    grid_step_m:
        Integration grid resolution.
    """

    sigma_m: float
    max_range_m: float = 2.5
    bluetooth_range_m: float = 10.0
    grid_step_m: float = 0.005

    def __post_init__(self) -> None:
        if self.sigma_m <= 0:
            raise ValueError("sigma_m must be positive")
        if not 0 < self.max_range_m <= self.bluetooth_range_m:
            raise ValueError(
                "need 0 < max_range_m <= bluetooth_range_m, got "
                f"{self.max_range_m} and {self.bluetooth_range_m}"
            )
        if self.grid_step_m <= 0:
            raise ValueError("grid_step_m must be positive")
        # Per-instance integration-grid caches.  Non-field attributes set
        # through object.__setattr__ stay out of dataclasses.fields(), so
        # equality/hash/fingerprinting of the frozen model are unaffected.
        # FRR grids for every τ are prefixes of one shared base grid
        # (arange values depend only on start/step/index); FAR grids start
        # at τ + step/2, so they are cached per τ instead.
        object.__setattr__(self, "_frr_base_grid", None)
        object.__setattr__(self, "_far_grids", {})

    def _frr_grid(self, threshold_m: float) -> np.ndarray:
        """Midpoint grid over (0, τ], sliced from the cached base grid."""
        base = self._frr_base_grid
        if base is None:
            base = np.arange(
                self.grid_step_m / 2, self.bluetooth_range_m, self.grid_step_m
            )
            object.__setattr__(self, "_frr_base_grid", base)
        n = _arange_length(self.grid_step_m / 2, threshold_m, self.grid_step_m)
        if n > base.size:  # τ beyond the Bluetooth range: extend directly
            return np.arange(self.grid_step_m / 2, threshold_m, self.grid_step_m)
        return base[:n]

    def _far_grid(self, threshold_m: float) -> np.ndarray:
        """Midpoint grid over (τ, R_bt], cached per τ."""
        grid = self._far_grids.get(threshold_m)
        if grid is None:
            grid = np.arange(
                threshold_m + self.grid_step_m / 2,
                self.bluetooth_range_m,
                self.grid_step_m,
            )
            self._far_grids[threshold_m] = grid
        return grid

    def frr_at_distance(self, d: float, threshold_m: float) -> float:
        """P(estimate > τ) for a legitimate user at distance ``d``.

        A legitimate user beyond the acoustic range d_s is always falsely
        rejected (ranging returns ⊥); within range the Gaussian tail
        applies.
        """
        if d > self.max_range_m:
            return 1.0
        return float(ndtr(-((threshold_m - d) / self.sigma_m)))

    def far_at_distance(self, d: float, threshold_m: float) -> float:
        """P(estimate ≤ τ) for an attacker with the user at distance ``d``."""
        if d >= self.max_range_m or d > self.bluetooth_range_m:
            return 0.0
        return float(ndtr((threshold_m - d) / self.sigma_m))

    def frr(self, threshold_m: float) -> float:
        """Average FRR over legitimate distances d ∈ (0, τ].

        Midpoint-rule average (a right-endpoint grid would overweight the
        steep rise of P(est > τ) at d = τ and bias FRR upward).  The grid
        integrand is vectorized: ``ndtr`` is an elementwise ufunc and
        ``np.mean`` sees the same float64 values, so this is bit-identical
        to the per-distance scalar loop it replaced.
        """
        if threshold_m <= 0:
            raise ValueError("threshold must be positive")
        grid = self._frr_grid(threshold_m)
        values = np.where(
            grid > self.max_range_m,
            1.0,
            ndtr(-((threshold_m - grid) / self.sigma_m)),
        )
        return float(np.mean(values))

    def far(self, threshold_m: float) -> float:
        """Average FAR over illegitimate distances d ∈ (τ, R_bt]."""
        if threshold_m >= self.bluetooth_range_m:
            raise ValueError("threshold must be below the Bluetooth range")
        grid = self._far_grid(threshold_m)
        values = np.where(
            (grid >= self.max_range_m) | (grid > self.bluetooth_range_m),
            0.0,
            ndtr((threshold_m - grid) / self.sigma_m),
        )
        return float(np.mean(values))

    def frr_curve(self, thresholds) -> np.ndarray:
        """FRR fractions for a whole threshold array in one pass.

        Every τ reuses a prefix of the one cached base grid — no per-τ
        grid construction — and each entry is bit-identical to the
        scalar :meth:`frr`.
        """
        return np.array([self.frr(float(t)) for t in thresholds])

    def far_curve(self, thresholds) -> np.ndarray:
        """FAR fractions for a whole threshold array in one pass."""
        return np.array([self.far(float(t)) for t in thresholds])

    def threshold_for_frr(self, target_frr: float) -> float:
        """Smallest grid τ with modeled FRR ≤ ``target_frr`` (a fraction).

        FRR(τ) is monotone decreasing in τ, so this is the tightest
        threshold meeting the target.  Candidates run over the model grid
        up to the acoustic range d_s (beyond it FRR has a floor — users
        past d_s are always rejected); if even τ = d_s misses the target,
        d_s is returned as the best achievable threshold.
        """
        if not 0 < target_frr < 1:
            raise ValueError("target_frr must be a fraction in (0, 1)")
        candidates = np.arange(
            self.grid_step_m,
            self.max_range_m + self.grid_step_m / 2,
            self.grid_step_m,
        )
        lo, hi = 0, candidates.size - 1
        if self.frr(float(candidates[hi])) > target_frr:
            return float(candidates[hi])
        # Binary search for the first candidate meeting the target.
        while lo < hi:
            mid = (lo + hi) // 2
            if self.frr(float(candidates[mid])) <= target_frr:
                hi = mid
            else:
                lo = mid + 1
        return float(candidates[lo])

    def frr_row(self, thresholds=THRESHOLDS_M) -> list[float]:
        """FRR percentages across the standard thresholds."""
        return [100.0 * float(v) for v in self.frr_curve(thresholds)]

    def far_row(self, thresholds=THRESHOLDS_M) -> list[float]:
        """FAR percentages across the standard thresholds."""
        return [100.0 * float(v) for v in self.far_curve(thresholds)]
