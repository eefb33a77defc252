"""Experiment harness: the Control-PC side of the beam campaign.

Reproduces the test flow of Sections 3.5-3.6 and 4.1:

* :mod:`repro.harness.vmin` -- offline undervolting characterization:
  pfail(V) curves and safe-Vmin identification per frequency (Fig. 4).
* :mod:`repro.harness.controller` -- the Control-PC run loop: golden
  output comparison, response timeouts, application restart and board
  power-cycling.
* :mod:`repro.harness.session` -- one beam test session with the
  paper's stopping rules (>= 100 events or >= 1e11 n/cm^2).
* :mod:`repro.harness.campaign` -- the four-session campaign of
  Table 2.
* :mod:`repro.harness.logbook` -- structured session timeline logging.
"""

from .vmin import PfailModel, VminCharacterizer, VminResult, PFAIL_MODELS
from .controller import ControlPC, RunOutcome
from .session import BeamSession, SessionPlan, SessionResult, TABLE2_SESSION_PLANS
from .campaign import Campaign, CampaignResult
from .logbook import Logbook, LogEntry
from .availability import (
    AvailabilityModel,
    CheckpointModel,
    UndervoltingVerdict,
    undervolting_verdict,
)
from .viruses import (
    StressKernel,
    battery_safe_vmin_mv,
    characterize_with_viruses,
    make_viruses,
)

__all__ = [
    "PfailModel",
    "VminCharacterizer",
    "VminResult",
    "PFAIL_MODELS",
    "ControlPC",
    "RunOutcome",
    "BeamSession",
    "SessionPlan",
    "SessionResult",
    "TABLE2_SESSION_PLANS",
    "Campaign",
    "CampaignResult",
    "Logbook",
    "LogEntry",
    "AvailabilityModel",
    "CheckpointModel",
    "UndervoltingVerdict",
    "undervolting_verdict",
    "StressKernel",
    "battery_safe_vmin_mv",
    "characterize_with_viruses",
    "make_viruses",
]
