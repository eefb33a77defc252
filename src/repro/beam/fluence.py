"""Fluence accounting and NYC sea-level equivalence.

Fluence (neutrons/cm^2 integrated over a session) is the denominator of
every cross-section in the study and drives both stopping rules (>= 1e11
n/cm^2 for statistical significance) and the "years of NYC equivalent
radiation" row of Table 2.
"""

from __future__ import annotations

from ..constants import NYC_FLUX_PER_CM2_HOUR
from ..errors import BeamError
from ..units import hours_to_years, seconds_to_hours


class FluenceAccount:
    """Integrates fluence over a test session.

    Exposure segments at (possibly) different fluxes are accumulated;
    the account reports total fluence, exposure time, and the
    statistical-significance stopping condition.
    """

    def __init__(self) -> None:
        self._fluence = 0.0
        self._seconds = 0.0

    def expose(self, flux_per_cm2_s: float, seconds: float) -> None:
        """Add one exposure segment."""
        if flux_per_cm2_s < 0:
            raise BeamError("flux must be nonnegative")
        if seconds < 0:
            raise BeamError("exposure time must be nonnegative")
        self._fluence += flux_per_cm2_s * seconds
        self._seconds += seconds

    @property
    def fluence_per_cm2(self) -> float:
        """Accumulated fluence, neutrons/cm^2."""
        return self._fluence

    @property
    def exposure_seconds(self) -> float:
        """Accumulated beam-on time, seconds."""
        return self._seconds

    @property
    def exposure_minutes(self) -> float:
        """Accumulated beam-on time, minutes."""
        return self._seconds / 60.0

    def nyc_equivalent_years(self) -> float:
        """Years of natural NYC sea-level irradiation with equal fluence."""
        return nyc_equivalent_years(self._fluence)

    def __repr__(self) -> str:
        return (
            f"FluenceAccount({self._fluence:.3e} n/cm^2 over "
            f"{seconds_to_hours(self._seconds):.2f} h)"
        )


def nyc_equivalent_hours(fluence_per_cm2: float) -> float:
    """Hours of natural NYC irradiation matching *fluence_per_cm2*."""
    if fluence_per_cm2 < 0:
        raise BeamError("fluence must be nonnegative")
    return fluence_per_cm2 / NYC_FLUX_PER_CM2_HOUR


def nyc_equivalent_years(fluence_per_cm2: float) -> float:
    """Years of natural NYC irradiation matching *fluence_per_cm2*.

    Table 2's "Years of NYC equivalent radiation" row: e.g. session 1's
    1.49e11 n/cm^2 corresponds to ~1.3e6 years.
    """
    return hours_to_years(nyc_equivalent_hours(fluence_per_cm2))


def acceleration_factor(flux_per_cm2_s: float) -> float:
    """How much faster the beam ages the DUT than nature does.

    The ratio of the beam flux to the NYC reference flux; at the halo
    flux of 1.5e6 n/cm^2/s this is ~4e8.
    """
    if flux_per_cm2_s < 0:
        raise BeamError("flux must be nonnegative")
    nyc_per_s = NYC_FLUX_PER_CM2_HOUR / 3600.0
    return flux_per_cm2_s / nyc_per_s
