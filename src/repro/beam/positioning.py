"""DUT placement relative to the beam: center vs halo.

On the first campaign day the DUT sat in the beam center and crashed
too often to collect data, so the board was raised 5-10 cm into the
beam *halo*, lowering the flux to ~0.6 % of the center value (Section
3.4).  The halo position, unlike the center, has no mechanical stop, so
each re-insertion carries a positioning uncertainty that the six
dosimeter measurements quantified.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..constants import TNF_HALO_FRACTION, TNF_HALO_FRACTION_UNCERTAINTY
from ..errors import BeamError


class BeamPosition(enum.Enum):
    """The two test positions used during the campaign."""

    CENTER = "center"
    HALO = "halo"


@dataclass(frozen=True)
class PositioningModel:
    """Flux attenuation and repositioning jitter for each position.

    Attributes
    ----------
    halo_fraction:
        Mean fraction of the center flux seen at the halo.
    halo_fraction_sigma:
        1-sigma combined statistical+positioning uncertainty on that
        fraction (0.02 % in the paper -- i.e. on the *percentage*).
    """

    halo_fraction: float = TNF_HALO_FRACTION
    halo_fraction_sigma: float = TNF_HALO_FRACTION_UNCERTAINTY

    def __post_init__(self) -> None:
        if not 0 < self.halo_fraction <= 1:
            raise BeamError("halo fraction must be in (0, 1]")
        if self.halo_fraction_sigma < 0:
            raise BeamError("halo uncertainty must be nonnegative")

    def attenuation(self, position: BeamPosition) -> float:
        """Mean flux fraction for a position (1.0 at center)."""
        if position is BeamPosition.CENTER:
            return 1.0
        return self.halo_fraction

    def sample_attenuation(
        self, position: BeamPosition, rng: np.random.Generator
    ) -> float:
        """Flux fraction for one physical (re)placement of the DUT.

        Each slide down the access channel re-rolls the positioning
        error; the center position has a mechanical stop and no jitter.
        """
        if position is BeamPosition.CENTER:
            return 1.0
        frac = rng.normal(self.halo_fraction, self.halo_fraction_sigma)
        return float(np.clip(frac, 0.0, 1.0))
