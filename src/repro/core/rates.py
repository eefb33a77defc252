"""Event-rate estimation helpers (upsets/minute and friends)."""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import CONFIDENCE_LEVEL
from ..errors import AnalysisError
from .confidence import ConfidenceInterval, poisson_rate_interval


@dataclass(frozen=True)
class RateEstimate:
    """An event rate per minute with its Poisson uncertainty."""

    events: int
    minutes: float
    interval: ConfidenceInterval

    @property
    def per_minute(self) -> float:
        """Point estimate, events per minute."""
        return self.interval.value


def rate_per_minute(
    events: int, minutes: float, level: float = CONFIDENCE_LEVEL
) -> RateEstimate:
    """Estimate an events-per-minute rate with a 95 % interval."""
    if events < 0:
        raise AnalysisError("event count must be nonnegative")
    if minutes <= 0:
        raise AnalysisError("duration must be positive")
    return RateEstimate(
        events=events,
        minutes=minutes,
        interval=poisson_rate_interval(events, minutes, level),
    )
