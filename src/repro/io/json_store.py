"""Lossless JSON encoding of campaign results.

The on-disk schema mirrors the in-memory objects one-to-one:

.. code-block:: text

    {
      "schema": 1,
      "sram_bits": ...,
      "sessions": {
        "session1": {
          "plan": {...},
          "fluence": {"fluence_per_cm2": ..., "exposure_seconds": ...},
          "upsets": [...],          # every UpsetEvent
          "counts": {"L3 Cache/UE": n, ...},
          "failures": [...],        # every FailureEvent
          "edac_dmesg": "...",      # the EDAC archive, as dmesg text
          "runs": [...]             # per-run compact records
        }, ...
      }
    }

Round-trip guarantee: every analysis in :mod:`repro.core.analysis`
produces identical numbers on the reloaded object (tested).
"""

from __future__ import annotations

from typing import Dict, List

from ..beam.fluence import FluenceAccount
from ..errors import AnalysisError, ReproIOError
from .atomic import atomic_write_json, read_json_or_default
from ..harness.campaign import CampaignResult
from ..harness.controller import RunOutcome
from ..harness.session import SessionPlan, SessionResult
from ..injection.events import FailureEvent, OutcomeKind, UpsetEvent
from ..injection.injector import InjectionSummary
from ..soc.dvfs import OperatingPoint
from ..soc.edac import EdacLog, EdacSeverity
from ..soc.geometry import CacheLevel

SCHEMA_VERSION = 1

_LEVELS = {level.value: level for level in CacheLevel}
_SEVERITIES = {sev.value: sev for sev in EdacSeverity}
_KINDS = {kind.value: kind for kind in OutcomeKind}


# --- encoding ------------------------------------------------------------------


def _plan_to_dict(plan: SessionPlan) -> dict:
    return {
        "label": plan.label,
        "point": {
            "label": plan.point.label,
            "freq_mhz": plan.point.freq_mhz,
            "pmd_mv": plan.point.pmd_mv,
            "soc_mv": plan.point.soc_mv,
        },
        "max_minutes": plan.max_minutes,
        "target_failures": plan.target_failures,
        "target_fluence": plan.target_fluence,
        "benchmarks": list(plan.benchmarks),
        "flux_per_cm2_s": plan.flux_per_cm2_s,
    }


def _upset_to_dict(upset: UpsetEvent) -> dict:
    return {
        "time_s": upset.time_s,
        "array": upset.array,
        "level": upset.level,
        "bits": upset.bits,
        "corrected": upset.corrected,
    }


def _failure_to_dict(failure: FailureEvent) -> dict:
    return {
        "time_s": failure.time_s,
        "benchmark": failure.benchmark,
        "kind": failure.kind.value,
        "hw_notified": failure.hw_notified,
    }


def _counts_to_dict(summary: InjectionSummary) -> Dict[str, int]:
    return {
        f"{level.value}/{severity.value}": n
        for (level, severity), n in summary.counts.items()
    }


def _run_to_dict(run: RunOutcome) -> dict:
    return {
        "benchmark": run.benchmark,
        "start_s": run.start_s,
        "duration_s": run.duration_s,
        # Recovery takes no session time; the constant keeps
        # campaign.json's bytes.
        "recovery_s": 0.0,
        "counts": _counts_to_dict(run.upsets),
        "failure_count": len(run.failures),
    }


def session_to_dict(session: SessionResult) -> dict:
    """Encode one session result."""
    return {
        "plan": _plan_to_dict(session.plan),
        "fluence": {
            "fluence_per_cm2": session.fluence.fluence_per_cm2,
            "exposure_seconds": session.fluence.exposure_seconds,
        },
        "upsets": [_upset_to_dict(u) for u in session.upsets.upsets],
        "upsets_duration_s": session.upsets.duration_s,
        "counts": _counts_to_dict(session.upsets),
        "failures": [_failure_to_dict(f) for f in session.failures],
        "edac_dmesg": session.edac.to_dmesg(),
        "runs": [_run_to_dict(r) for r in session.runs],
    }


def campaign_to_dict(campaign: CampaignResult) -> dict:
    """Encode a whole campaign."""
    return {
        "schema": SCHEMA_VERSION,
        "sram_bits": campaign.sram_bits,
        "sessions": {
            label: session_to_dict(result)
            for label, result in campaign.sessions.items()
        },
    }


def unit_payload(lease, report, result) -> dict:
    """Encode one finished work unit, ``_fly_session``'s *result*.

    *lease* gives the unit's label and the supervisor's *report* its
    attempt count; the signature is the ``encode`` of
    :meth:`~repro.scheduler.Broker.settle`.  The journal line, the store
    commit and :func:`campaign_dict_from_entries` all carry exactly
    this dict.
    """
    session, sram_bits, snapshot = result
    return {
        "key": lease.label,
        "attempts": report.attempts,
        "sram_bits": sram_bits,
        "session": session_to_dict(session),
        "metrics": snapshot,
    }


def campaign_dict_from_entries(entries: List[dict]) -> dict:
    """Assemble a campaign dict from unit payloads, in plan order.

    *entries* are :func:`unit_payload` dicts, as ``run`` journals them
    and ``serve`` commits them.  The session payloads are passed
    through byte-for-byte -- never decoded and re-encoded -- which is
    what keeps a resumed, broker-sharded or service-assembled
    ``campaign.json`` identical to an uninterrupted run's.
    """
    return {
        "schema": SCHEMA_VERSION,
        "sram_bits": next(
            (e["sram_bits"] for e in entries if e.get("sram_bits")), 0
        ),
        "sessions": {entry["key"]: entry["session"] for entry in entries},
    }


# --- decoding ------------------------------------------------------------------


def _plan_from_dict(data: dict) -> SessionPlan:
    point = data["point"]
    return SessionPlan(
        label=data["label"],
        point=OperatingPoint(
            label=point["label"],
            freq_mhz=point["freq_mhz"],
            pmd_mv=point["pmd_mv"],
            soc_mv=point["soc_mv"],
        ),
        max_minutes=data["max_minutes"],
        target_failures=data["target_failures"],
        target_fluence=data["target_fluence"],
        benchmarks=list(data["benchmarks"]),
        flux_per_cm2_s=data["flux_per_cm2_s"],
    )


def _counts_from_dict(data: Dict[str, int]):
    counts = {}
    for key, n in data.items():
        level_name, severity_name = key.rsplit("/", 1)
        if level_name not in _LEVELS or severity_name not in _SEVERITIES:
            raise AnalysisError(f"unknown count key {key!r}")
        counts[(_LEVELS[level_name], _SEVERITIES[severity_name])] = int(n)
    return counts


def _summary_from_dict(
    upsets: List[dict], counts: Dict[str, int], duration_s: float
) -> InjectionSummary:
    return InjectionSummary(
        upsets=[UpsetEvent(**u) for u in upsets],
        duration_s=duration_s,
        counts=_counts_from_dict(counts),
    )


def _failure_from_dict(data: dict) -> FailureEvent:
    if data["kind"] not in _KINDS:
        raise AnalysisError(f"unknown failure kind {data['kind']!r}")
    return FailureEvent(
        time_s=data["time_s"],
        benchmark=data["benchmark"],
        kind=_KINDS[data["kind"]],
        hw_notified=data["hw_notified"],
    )


def _run_from_dict(data: dict) -> RunOutcome:
    return RunOutcome(
        benchmark=data["benchmark"],
        start_s=data["start_s"],
        duration_s=data["duration_s"],
        failures=[],  # failures are kept at session scope
        upsets=InjectionSummary(
            upsets=[],
            duration_s=data["duration_s"],
            counts=_counts_from_dict(data["counts"]),
        ),
    )


def session_from_dict(data: dict) -> SessionResult:
    """Decode one session result."""
    fluence = FluenceAccount()
    seconds = data["fluence"]["exposure_seconds"]
    if seconds > 0:
        fluence.expose(data["fluence"]["fluence_per_cm2"] / seconds, seconds)
    return SessionResult(
        plan=_plan_from_dict(data["plan"]),
        fluence=fluence,
        upsets=_summary_from_dict(
            data["upsets"], data["counts"], data["upsets_duration_s"]
        ),
        failures=[_failure_from_dict(f) for f in data["failures"]],
        edac=EdacLog.from_dmesg(data["edac_dmesg"]),
        runs=[_run_from_dict(r) for r in data["runs"]],
    )


def campaign_from_dict(data: dict) -> CampaignResult:
    """Decode a whole campaign."""
    if data.get("schema") != SCHEMA_VERSION:
        raise AnalysisError(
            f"unsupported campaign schema {data.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    result = CampaignResult(sram_bits=int(data["sram_bits"]))
    for label, session in data["sessions"].items():
        result.sessions[label] = session_from_dict(session)
    return result


# --- files -----------------------------------------------------------------------


def save_campaign(campaign: CampaignResult, path: str) -> None:
    """Write a campaign to a JSON file (atomically: temp + rename).

    A kill at any point leaves either the previous campaign.json or the
    complete new one on disk, never truncated JSON.
    """
    atomic_write_json(path, campaign_to_dict(campaign))


def load_campaign(path: str) -> CampaignResult:
    """Read a campaign back from a JSON file."""
    data = read_json_or_default(path)
    if data is None:
        raise ReproIOError(f"no campaign stored at {path!r}")
    return campaign_from_dict(data)
