"""Lossless JSON encoding of campaign results.

A flown session travels as its compact *record*
(:func:`session_to_dict`): the store commit, the pool reply and
:func:`campaign_dict_from_entries` all carry it.  The record keeps the
session-level data and, of the runs, only their number and the sparse
table of runs that struck or failed something:

.. code-block:: text

    {
      "version": 2,
      "plan": {...},
      "fluence": {"fluence_per_cm2": ..., "exposure_seconds": ...},
      "upsets": [...],          # every UpsetEvent
      "upsets_duration_s": ...,
      "counts": {"L3 Cache/UE": n, ...},
      "failures": [...],        # every FailureEvent
      "edac_dmesg": "...",      # the EDAC archive, as dmesg text
      "runs_flown": n,
      "busy_runs": [[index, {"L2 Cache/CE": n, ...}, failure_count], ...]
    }

:func:`render_session` renders ``campaign.json``'s session dict from a
record: the same keys, with ``version``, ``runs_flown`` and
``busy_runs`` replaced by one ``runs`` entry per run flown, whose
benchmark and clock come from the plan's
:func:`~repro.harness.session.run_schedule`:

.. code-block:: text

    {
      "schema": 1,
      "sram_bits": ...,
      "sessions": {
        "session1": {"plan": ..., ..., "edac_dmesg": "...",
                     "runs": [{"benchmark": ..., "start_s": ...,
                               "duration_s": ..., "recovery_s": 0.0,
                               "counts": {...}, "failure_count": n}, ...]},
        ...
      }
    }

Round-trip guarantee: every analysis in :mod:`repro.core.analysis`
produces identical numbers on the reloaded object (tested).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..beam.fluence import FluenceAccount
from ..errors import AnalysisError, ReproIOError
from .atomic import atomic_write_json, read_json_or_default
from ..harness.campaign import CampaignResult
from ..harness.session import SessionPlan, SessionResult, run_schedule
from ..injection.events import FailureEvent, OutcomeKind, UpsetEvent
from ..injection.injector import InjectionSummary
from ..soc.dvfs import OperatingPoint
from ..soc.edac import EdacLog, EdacSeverity
from ..soc.geometry import CacheLevel

SCHEMA_VERSION = 1

#: Version of the session record.  The per-run payload before it had no
#: version field and a ``runs`` list; nothing reads that shape.
RECORD_VERSION = 2

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


def _counts_to_dict(
    counts: Dict[Tuple[CacheLevel, EdacSeverity], int]
) -> Dict[str, int]:
    return {
        f"{level.value}/{severity.value}": n
        for (level, severity), n in counts.items()
    }


def session_to_dict(session: SessionResult) -> dict:
    """Encode one session result as its compact record."""
    return {
        "version": RECORD_VERSION,
        "plan": _plan_to_dict(session.plan),
        "fluence": {
            "fluence_per_cm2": session.fluence.fluence_per_cm2,
            "exposure_seconds": session.fluence.exposure_seconds,
        },
        "upsets": [_upset_to_dict(u) for u in session.upsets.upsets],
        "upsets_duration_s": session.upsets.duration_s,
        "counts": _counts_to_dict(session.upsets.counts),
        "failures": [_failure_to_dict(f) for f in session.failures],
        "edac_dmesg": session.edac.to_dmesg(),
        "runs_flown": session.runs_flown,
        "busy_runs": [
            [index, _counts_to_dict(counts), failure_count]
            for index, counts, failure_count in session.busy_runs
        ],
    }


def render_session(record: dict) -> dict:
    """``campaign.json``'s session dict, rendered from a session record.

    The one renderer behind ``run``, ``--resume``, ``serve`` and
    :func:`campaign_to_dict`.  Each run's benchmark, ``start_s`` and
    ``duration_s`` come from the plan's schedule cut at the runs flown:
    the list the session flew, rebuilt by the same function from the
    same plan.  A busy run's counts dict is the record's own, in flown
    key order; every other run struck nothing and failed nothing.
    Recovery takes no session time, so ``recovery_s`` is the constant
    0.0.  The session-level values pass through as they are.
    """
    flown = record["runs_flown"]
    runs = [
        {
            "benchmark": benchmark,
            "start_s": start_s,
            "duration_s": duration_s,
            "recovery_s": 0.0,
            "counts": {},
            "failure_count": 0,
        }
        for benchmark, start_s, duration_s in run_schedule(
            _plan_from_dict(record["plan"])
        )[:flown]
    ]
    if len(runs) != flown:
        raise ReproIOError(
            f"session record {record['plan']['label']!r} flew {flown} "
            f"run(s), its plan schedules {len(runs)}"
        )
    last = -1
    for index, counts, failure_count in record["busy_runs"]:
        if not last < index < flown:
            raise ReproIOError(
                f"session record {record['plan']['label']!r}: busy run "
                f"{index} is out of order or past the {flown} run(s) flown"
            )
        runs[index]["counts"] = counts
        runs[index]["failure_count"] = failure_count
        last = index
    return {
        "plan": record["plan"],
        "fluence": record["fluence"],
        "upsets": record["upsets"],
        "upsets_duration_s": record["upsets_duration_s"],
        "counts": record["counts"],
        "failures": record["failures"],
        "edac_dmesg": record["edac_dmesg"],
        "runs": runs,
    }


def campaign_to_dict(campaign: CampaignResult) -> dict:
    """Encode a whole campaign as ``campaign.json`` holds it."""
    return {
        "schema": SCHEMA_VERSION,
        "sram_bits": campaign.sram_bits,
        "sessions": {
            label: render_session(session_to_dict(result))
            for label, result in campaign.sessions.items()
        },
    }


def unit_payload(lease, report, result) -> dict:
    """Encode one finished work unit, ``_fly_session``'s *result*.

    *lease* gives the unit's label and the supervisor's *report* its
    attempt count; the signature is the ``encode`` of
    :meth:`~repro.scheduler.Broker.settle`.  The store commit and
    :func:`campaign_dict_from_entries` carry exactly this dict, whose
    ``session`` is the compact record.
    """
    session, sram_bits, snapshot = result
    return {
        "key": lease.label,
        "attempts": report.attempts,
        "sram_bits": sram_bits,
        "session": session_to_dict(session),
        "metrics": snapshot,
    }


def _checked_record(entry: dict) -> dict:
    """*entry*'s session record, refused unless it is the current version."""
    record = entry["session"]
    version = record.get("version")
    if version != RECORD_VERSION:
        shape = " (a per-run payload)" if "runs" in record else ""
        raise ReproIOError(
            f"unit {entry['key']!r}: unsupported session record version "
            f"{version!r}{shape} (expected {RECORD_VERSION}); refusing to "
            f"assemble it"
        )
    return record


def campaign_dict_from_entries(entries: List[dict]) -> dict:
    """Assemble a campaign dict from unit payloads, in plan order.

    *entries* are :func:`unit_payload` dicts, as ``run``, ``serve``
    and the broker pairings commit them.  Each session record is
    rendered by :func:`render_session` -- never decoded to a
    :class:`SessionResult` and re-encoded -- which is what keeps a
    resumed, broker-sharded or service-assembled ``campaign.json``
    identical to an uninterrupted run's.  Every record is checked before any is rendered, so a legacy
    payload raises :class:`~repro.errors.ReproIOError` naming its unit
    before anything is written.
    """
    records = [(entry["key"], _checked_record(entry)) for entry in entries]
    return {
        "schema": SCHEMA_VERSION,
        "sram_bits": next(
            (e["sram_bits"] for e in entries if e.get("sram_bits")), 0
        ),
        "sessions": {
            key: render_session(record) for key, record in records
        },
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


def _busy_runs_from_list(plan: SessionPlan, runs: List[dict]):
    """``(runs flown, busy runs)`` of ``campaign.json``'s *runs* list.

    Every row must be the plan's schedule at its index, with the
    constant ``recovery_s``; a list longer than the schedule, or shorter
    without a stopping rule that could have cut it, is refused.
    """
    schedule = run_schedule(plan)
    can_stop = (plan.target_failures, plan.target_fluence) != (None, None)
    if len(runs) > len(schedule) or (
        len(runs) < len(schedule) and not can_stop
    ):
        raise AnalysisError(
            f"session {plan.label!r} records {len(runs)} run(s); its "
            f"plan's schedule holds {len(schedule)}"
        )
    busy = []
    for index, (run, planned) in enumerate(zip(runs, schedule)):
        flown = (run["benchmark"], run["start_s"], run["duration_s"])
        if flown != planned:
            raise AnalysisError(
                f"session {plan.label!r}: run {index} is {flown!r}, the "
                f"plan's schedule says {planned!r}"
            )
        if run["recovery_s"] != 0.0:
            raise AnalysisError(
                f"session {plan.label!r}: run {index} has recovery_s "
                f"{run['recovery_s']!r}; recovery takes no beam time (0.0)"
            )
        counts, failure_count = run["counts"], run["failure_count"]
        if counts or failure_count:
            busy.append((index, _counts_from_dict(counts), int(failure_count)))
    return len(runs), busy


def session_from_dict(data: dict) -> SessionResult:
    """Decode one ``campaign.json`` session dict into its record."""
    plan = _plan_from_dict(data["plan"])
    runs_flown, busy_runs = _busy_runs_from_list(plan, data["runs"])
    fluence = FluenceAccount()
    seconds = data["fluence"]["exposure_seconds"]
    if seconds > 0:
        fluence.expose(data["fluence"]["fluence_per_cm2"] / seconds, seconds)
    return SessionResult(
        plan=plan,
        fluence=fluence,
        upsets=_summary_from_dict(
            data["upsets"], data["counts"], data["upsets_duration_s"]
        ),
        failures=[_failure_from_dict(f) for f in data["failures"]],
        edac=EdacLog.from_dmesg(data["edac_dmesg"]),
        runs_flown=runs_flown,
        busy_runs=busy_runs,
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
