"""Atmospheric-like neutron energy spectrum.

The TNF beam is tuned to match the JEDEC JESD89B terrestrial reference
spectrum (Section 3.4).  Above ~10 MeV the differential flux of the
atmospheric spectrum is well approximated by a power law
dPhi/dE ~ E^-gamma with gamma ~= 1.25 over 10-1000 MeV; upset-relevant
fluence figures count only E > 10 MeV, with a separately book-kept
thermal component (~15 % of the >10 MeV flux in the halo configuration).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import TNF_THERMAL_FRACTION
from ..errors import BeamError


@dataclass(frozen=True)
class NeutronSpectrum:
    """Power-law approximation of the >10 MeV atmospheric spectrum.

    Attributes
    ----------
    e_min_mev / e_max_mev:
        Energy bounds of the fast component (MeV).
    gamma:
        Power-law index of the differential spectrum.
    thermal_fraction:
        Thermal-neutron flux as a fraction of the >10 MeV flux.
    """

    e_min_mev: float = 10.0
    e_max_mev: float = 1000.0
    gamma: float = 1.25
    thermal_fraction: float = TNF_THERMAL_FRACTION

    def __post_init__(self) -> None:
        if self.e_min_mev <= 0 or self.e_max_mev <= self.e_min_mev:
            raise BeamError("need 0 < e_min < e_max")
        if self.gamma <= 1.0:
            raise BeamError("spectrum index must exceed 1 for a finite integral")
        if not 0 <= self.thermal_fraction < 1:
            raise BeamError("thermal fraction must be in [0, 1)")
