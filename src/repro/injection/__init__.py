"""Fault injection and error-propagation models.

Connects the beam to the chip and the chip to the software layer:

* :mod:`repro.injection.calibration` -- the paper-measured anchor
  tables (per-level upset rates, outcome mixes, notification rates)
  and their interpolators.
* :mod:`repro.injection.injector` -- Poisson sampling of beam-induced
  SRAM upsets over the chip's arrays, through the MBU and protection
  models into the EDAC log.
* :mod:`repro.injection.propagation` -- upset-to-software outcome model
  (masked / SDC / application crash / system crash).
* :mod:`repro.injection.avf` -- architectural-vulnerability-factor
  utilities (design implication #3 of the paper).
* :mod:`repro.injection.direct` -- concrete bit flips in live numpy
  arrays of a running workload, with golden-compare classification.
"""

from .events import OutcomeKind, FailureEvent, UpsetEvent
from .calibration import (
    LevelRateModel,
    OutcomeMixModel,
    LEVEL_BASE_RATES_980MV,
    LEVEL_VOLTAGE_SLOPES,
)
from .injector import BeamInjector, InjectionSummary
from .propagation import OutcomeModel
from .avf import structure_fit, scale_avf_fit
from .direct import DirectInjector, DirectInjectionResult
from .microarch import (
    CoreStructure,
    FiCampaignResult,
    MicroarchInjector,
    required_injections,
)

__all__ = [
    "OutcomeKind",
    "FailureEvent",
    "UpsetEvent",
    "LevelRateModel",
    "OutcomeMixModel",
    "LEVEL_BASE_RATES_980MV",
    "LEVEL_VOLTAGE_SLOPES",
    "BeamInjector",
    "InjectionSummary",
    "OutcomeModel",
    "structure_fit",
    "scale_avf_fit",
    "DirectInjector",
    "DirectInjectionResult",
    "CoreStructure",
    "FiCampaignResult",
    "MicroarchInjector",
    "required_injections",
]
