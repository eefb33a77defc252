"""Fault-tolerant execution: checkpoint/resume, supervision, chaos.

The paper's campaigns burned 64+ beam-hours and routinely ended runs in
AppCrash/SysCrash; a harness that loses the whole campaign when one
work unit dies cannot reproduce that methodology at scale.  This layer
sits on top of :mod:`repro.engine` and adds the operational resilience
of a real beam-test runner:

* :class:`SupervisedExecutor` -- per-unit timeouts, bounded retries
  with deterministic backoff, SDC/AppCrash/SysCrash failure triage,
  quarantine of poison units, and graceful parallel-to-serial
  degradation when workers keep dying;
* :class:`CampaignJournal` -- an append-only, fsynced JSONL checkpoint
  of completed work units;
* :class:`ResilientCampaign` -- the checkpointed campaign runner behind
  ``repro-campaign run`` and its ``--resume`` flag, with byte-identical
  resume semantics;
* :mod:`repro.resilient.chaos` -- deterministic fault injection into
  the harness itself (raising/hanging/killed/crashing units), the
  machinery behind ``tests/chaos/``.

Determinism contract: supervision, journaling and chaos never touch an
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
from .journal import (
    CampaignJournal,
    EventJournal,
    FSYNC_POLICIES,
    JournalEntry,
    JournalHeader,
    LoadedJournal,
    read_journal_header,
)
from .policy import (
    FailureClass,
    SupervisionPolicy,
    UnitTimeoutError,
    classify_failure,
)
from .runner import ResilientCampaign, ResilientRunReport
from .supervisor import SupervisedExecutor, UnitFailure, UnitReport

__all__ = [
    "ChaosFatalError",
    "ChaosSpec",
    "ChaosTransientError",
    "FAULT_KINDS",
    "SimulatedCrash",
    "CampaignJournal",
    "EventJournal",
    "FSYNC_POLICIES",
    "JournalEntry",
    "JournalHeader",
    "LoadedJournal",
    "read_journal_header",
    "FailureClass",
    "SupervisionPolicy",
    "UnitTimeoutError",
    "classify_failure",
    "ResilientCampaign",
    "ResilientRunReport",
    "SupervisedExecutor",
    "UnitFailure",
    "UnitReport",
]
