"""Fault-tolerant execution: supervision, resumable runs, chaos.

The paper's campaigns burned 64+ beam-hours and routinely ended runs in
AppCrash/SysCrash; a harness that loses the whole campaign when one
work unit dies cannot reproduce that methodology at scale.  This layer
sits on top of :mod:`repro.engine` and adds the operational resilience
of a real beam-test runner:

* :class:`SupervisedExecutor` -- per-unit timeouts, bounded retries
  with deterministic backoff, SDC/AppCrash/SysCrash failure triage,
  quarantine of poison units, and graceful parallel-to-serial
  degradation when workers keep dying;
* :class:`ResilientCampaign` -- the campaign runner behind
  ``repro-campaign run`` and its ``--resume`` flag: a drain through a
  broker backed by the results directory's
  :class:`~repro.scheduler.DirectoryStore`, with byte-identical resume
  semantics;
* :class:`EventJournal` -- the service's append-only, fsynced JSONL log
  of scheduling events;
* :mod:`repro.resilient.chaos` -- deterministic fault injection into
  the harness itself (raising/hanging/killed/crashing units), the
  machinery behind ``tests/chaos/``.

Determinism contract: supervision, checkpoints and chaos never touch an
RNG stream; unit streams derive from ``(seed, label)`` alone, so
retried, resumed, or fault-riddled runs produce byte-identical
``campaign.json`` artifacts once their units complete.
"""

from .chaos import (
    ChaosFatalError,
    ChaosSpec,
    ChaosTransientError,
    FAULT_KINDS,
    SimulatedCrash,
)
from .journal import EventJournal
from .policy import (
    FailureClass,
    SupervisionPolicy,
    UnitTimeoutError,
    classify_failure,
)
from .runner import ResilientCampaign, ResilientRunReport
from .supervisor import SupervisedExecutor, UnitReport

__all__ = [
    "ChaosFatalError",
    "ChaosSpec",
    "ChaosTransientError",
    "FAULT_KINDS",
    "SimulatedCrash",
    "EventJournal",
    "FailureClass",
    "SupervisionPolicy",
    "UnitTimeoutError",
    "classify_failure",
    "ResilientCampaign",
    "ResilientRunReport",
    "SupervisedExecutor",
    "UnitReport",
]
