"""Dynamic cross-section (Eq. 1 of the paper).

    DCS = number of events / particle fluence      [cm^2]

The DCS measures how likely a radiation-induced event (memory upset,
SDC, crash) is per unit particle fluence, under a given workload,
configuration and environment.  Larger DCS = more susceptible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import CONFIDENCE_LEVEL
from ..errors import AnalysisError
from .confidence import ConfidenceInterval, poisson_interval


@dataclass(frozen=True)
class DcsEstimate:
    """A measured dynamic cross-section with its Poisson uncertainty.

    Attributes
    ----------
    events:
        Observed event count.
    fluence_per_cm2:
        Accumulated particle fluence.
    interval:
        95 % (by default) confidence interval on the DCS in cm^2.
    """

    events: int
    fluence_per_cm2: float
    interval: ConfidenceInterval

    @property
    def cm2(self) -> float:
        """Point estimate of the cross-section, cm^2."""
        return self.interval.value


def dynamic_cross_section(
    events: int,
    fluence_per_cm2: float,
    level: float = CONFIDENCE_LEVEL,
) -> DcsEstimate:
    """Compute the DCS of *events* over *fluence_per_cm2* (Eq. 1)."""
    if events < 0:
        raise AnalysisError("event count must be nonnegative")
    if fluence_per_cm2 <= 0:
        raise AnalysisError("fluence must be positive")
    interval = poisson_interval(events, level).scaled(1.0 / fluence_per_cm2)
    return DcsEstimate(
        events=events, fluence_per_cm2=fluence_per_cm2, interval=interval
    )
