"""Chip-population guardband analytics.

The paper characterizes one chip; a fleet operator undervolts
thousands.  Chip-to-chip Vmin variation (measured by the related work
the paper builds on, [36]/[57]/[74]) decides whether the fleet runs at
a single conservative voltage or per-chip characterized settings --
and how much of the guardband each policy actually recovers.

Model: per-chip safe Vmin ~ Normal(mu, sigma).  A fleet-wide setting V
is safe for a chip iff V >= its Vmin, so the fleet-safe voltage at
a target violation probability epsilon is the (1-epsilon) quantile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from ..constants import PMD_NOMINAL_MV, VOLTAGE_STEP_MV
from ..errors import AnalysisError


@dataclass(frozen=True)
class VminPopulation:
    """Chip-to-chip distribution of the safe Vmin at one frequency.

    Attributes
    ----------
    mean_mv:
        Population mean of the safe Vmin (the studied chip's 920 mV is
        one draw from this).
    sigma_mv:
        Chip-to-chip standard deviation (~10-15 mV is typical of the
        multi-chip studies [36][74]).
    nominal_mv:
        The shared nominal voltage.
    """

    mean_mv: float = 917.0
    sigma_mv: float = 12.0
    nominal_mv: float = float(PMD_NOMINAL_MV)

    def __post_init__(self) -> None:
        if self.sigma_mv <= 0:
            raise AnalysisError("sigma must be positive")
        if self.mean_mv >= self.nominal_mv:
            raise AnalysisError("population mean must sit below nominal")

    # -- population statistics ------------------------------------------------

    def fleet_safe_voltage_mv(
        self, violation_target: float = 1e-4, step_mv: int = VOLTAGE_STEP_MV
    ) -> int:
        """Lowest grid voltage whose violation probability is under target."""
        if not 0 < violation_target < 1:
            raise AnalysisError("violation target must be in (0, 1)")
        upper_z = -special.ndtri(violation_target)  # scipy.stats.norm.isf
        quantile = self.mean_mv + self.sigma_mv * upper_z
        # Round *up* to the regulator grid: safety is one-sided.
        steps = -(-quantile // step_mv)
        voltage = int(steps * step_mv)
        return min(voltage, int(self.nominal_mv))

    def sample_chips(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw per-chip Vmins (clipped to the nominal ceiling)."""
        if count <= 0:
            raise AnalysisError("chip count must be positive")
        draws = rng.normal(self.mean_mv, self.sigma_mv, size=count)
        return np.minimum(draws, self.nominal_mv)

    # -- guardband recovery -----------------------------------------------------

    def guardband_recovered_fleetwide(
        self, violation_target: float = 1e-4, margin_mv: int = 0
    ) -> float:
        """Fraction of the mean guardband a single fleet voltage recovers.

        ``margin_mv`` models design implication #2: operating that many
        millivolts above the identified safe point.
        """
        fleet_v = self.fleet_safe_voltage_mv(violation_target) + margin_mv
        recovered = self.nominal_mv - fleet_v
        available = self.nominal_mv - self.mean_mv
        return max(recovered, 0.0) / available

    def guardband_recovered_per_chip(
        self, count: int, rng: np.random.Generator, margin_mv: int = 0
    ) -> float:
        """Mean recovered-guardband fraction with per-chip settings."""
        vmins = self.sample_chips(count, rng)
        recovered = np.maximum(self.nominal_mv - (vmins + margin_mv), 0.0)
        available = self.nominal_mv - self.mean_mv
        return float(recovered.mean() / available)


def per_chip_advantage_mv(
    population: VminPopulation, violation_target: float = 1e-4
) -> float:
    """Extra undervolt (mV) per-chip characterization buys on average.

    The fleet-wide setting must clear the population *tail*; per-chip
    settings clear each chip's own Vmin, recovering the difference
    between the (1-eps) quantile and the mean.
    """
    fleet_v = population.fleet_safe_voltage_mv(violation_target)
    return float(fleet_v - population.mean_mv)
