"""TRIUMF Neutron irradiation Facility (TNF) beam simulator.

Models the accelerated-radiation environment of Section 3.4:

* :mod:`repro.beam.spectrum` -- atmospheric-like neutron energy
  spectrum (JEDEC JESD89B shape) with a thermal-contamination tail.
* :mod:`repro.beam.facility` -- the TNF beam: proton current to flux,
  operational envelope, beam spot.
* :mod:`repro.beam.positioning` -- beam-center vs halo placement with
  mechanical positioning uncertainty.
* :mod:`repro.beam.dosimeter` -- the SRAM "golden board" dosimeter used
  for the relative flux calibration at the halo position.
* :mod:`repro.beam.fluence` -- fluence integration and NYC sea-level
  equivalence.
"""

from .spectrum import NeutronSpectrum
from .facility import TnfBeam, BeamState
from .positioning import BeamPosition, PositioningModel
from .dosimeter import SramDosimeter, HaloCalibration, calibrate_halo
from .fluence import FluenceAccount, nyc_equivalent_hours, nyc_equivalent_years

__all__ = [
    "NeutronSpectrum",
    "TnfBeam",
    "BeamState",
    "BeamPosition",
    "PositioningModel",
    "SramDosimeter",
    "HaloCalibration",
    "calibrate_halo",
    "FluenceAccount",
    "nyc_equivalent_hours",
    "nyc_equivalent_years",
]
