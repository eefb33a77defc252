"""ResilientCampaign: checkpointed, supervised, resumable campaign runs.

The plain :class:`~repro.harness.campaign.Campaign` loses everything if
one session raises or the run is interrupted; this runner adds the
operational layer a multi-day beam campaign actually needs:

* every completed work unit is checkpointed to an append-only JSONL
  journal (fsynced per unit) *as it completes*;
* a crashed or SIGTERMed run resumes with ``--resume``: journaled units
  are loaded back, only the missing ones are flown;
* because session streams derive from ``(seed, label)`` alone -- never
  from cross-session draw order -- and because the journal stores each
  unit's compact session record, which the one renderer turns into
  ``campaign.json``, a resumed run's ``campaign.json`` is
  byte-identical to the uninterrupted run's;
* work units fly under :class:`~repro.resilient.SupervisedExecutor`
  (timeouts, retries, quarantine, parallel-to-serial degradation), so a
  poison unit costs its own data, not the campaign's;
* an in-memory broker is the run's only record of what finished: units
  settle through :meth:`~repro.scheduler.Broker.drain`, as in
  ``explore``, and ``campaign.json`` is assembled from its payloads.

Telemetry: per-unit metric snapshots ride in the journal, so a resumed
run's merged counters equal the uninterrupted run's (the resume itself
is visible separately as ``resilient.resumed_units``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..engine import CAMPAIGN_WARMUP, ExecutionContext
from ..errors import ReproIOError
from ..harness.campaign import Campaign
from ..io.json_store import campaign_dict_from_entries, unit_payload
from ..io.results_dir import ResultsDirectory
from ..io.atomic import atomic_write_json
from ..scheduler import Broker
from ..telemetry import NULL_TELEMETRY
from ..core.report import Table
from .chaos import ChaosSpec, SimulatedCrash
from .journal import (
    CampaignJournal,
    JournalEntry,
    JournalHeader,
)
from .policy import SupervisionPolicy
from .supervisor import SupervisedExecutor, UnitReport


class ResilientRunReport:
    """Everything a fault-tolerant run produced, failures included.

    Attributes
    ----------
    campaign_dict:
        The encoded campaign (what ``campaign.json`` holds), rendered
        from the unit payloads' session records and never decoded;
        resumed sessions render from their journal lines, quarantined
        ones are absent.
    unit_reports:
        One :class:`~repro.resilient.supervisor.UnitReport` per plan,
        in plan order (status ``ok``, ``resumed`` or ``quarantined``).
    resumed_units / salvaged_lines:
        Resume bookkeeping (0 on a fresh run).
    """

    def __init__(
        self,
        campaign_dict: dict,
        unit_reports: List[UnitReport],
        resumed_units: int = 0,
        salvaged_lines: int = 0,
    ) -> None:
        self.campaign_dict = campaign_dict
        self.unit_reports = unit_reports
        self.resumed_units = resumed_units
        self.salvaged_lines = salvaged_lines

    @property
    def ok(self) -> bool:
        """True when every work unit completed (fresh or resumed)."""
        return not self.failed_units

    @property
    def failed_units(self) -> List[UnitReport]:
        """Reports of quarantined units, in plan order."""
        return [r for r in self.unit_reports if r.status == "quarantined"]

    def failure_table(self) -> Table:
        """Per-unit outcome table (printed by ``run --strict``)."""
        table = Table(
            title="Work-unit supervision report",
            header=["Unit", "Status", "Attempts", "Class", "Error"],
        )
        for report in self.unit_reports:
            table.add_row(
                report.key,
                report.status,
                report.attempts,
                report.failure_class.value if report.failure_class else "-",
                report.error or "-",
            )
        return table

    def failures_dict(self) -> dict:
        """JSON-shaped failure report (persisted as ``failures.json``)."""
        return {
            "schema": 1,
            "ok": self.ok,
            "resumed_units": self.resumed_units,
            "salvaged_lines": self.salvaged_lines,
            "units": [r.to_dict() for r in self.unit_reports],
        }

    def persist(self, results: ResultsDirectory) -> List[str]:
        """Write campaign.json (+ dmesg logs, + failures.json) atomically.

        ``campaign.json`` and every ``<label>.dmesg`` come from
        :attr:`campaign_dict` -- rendered from the journaled session
        records -- not from a decode/re-encode round trip, which is what
        keeps interrupted-and-resumed runs byte-identical to
        uninterrupted ones.
        """
        written = [results.save_campaign_dict(self.campaign_dict)]
        written.extend(results.save_dmesg(self.campaign_dict).values())
        written.append(
            atomic_write_json(results.failures_path(), self.failures_dict())
        )
        return written


class ResilientCampaign:
    """A :class:`Campaign` wrapped in checkpointing and supervision.

    A finished unit is kept only as its encoded payload, in the run's
    broker, and assembled by the same :mod:`repro.io.json_store`
    functions as in ``serve``; the live session result is dropped.

    Parameters
    ----------
    context / tech_node:
        Exactly as for :class:`~repro.harness.campaign.Campaign`.
    policy:
        Supervision knobs (timeouts/retries/backoff/degradation).
    workers:
        Worker processes for the supervised executor (0/1 = serial).
    chaos:
        Optional deterministic fault plan (harness self-test only).
    fsync:
        Journal fsync policy (``"unit"`` or ``"never"``).
    """

    def __init__(
        self,
        context: ExecutionContext,
        policy: Optional[SupervisionPolicy] = None,
        workers: int = 0,
        chaos: Optional[ChaosSpec] = None,
        fsync: str = "unit",
        tech_node: Optional[str] = None,
    ) -> None:
        # Reuse Campaign's plan preparation (time scaling, flux
        # override, node scaling) so both runners fly literally the
        # same plans from the same inputs.
        self._campaign = Campaign(context=context, tech_node=tech_node)
        self.context = context
        self.plans = self._campaign.plans
        self.chaos = chaos
        self.fsync = fsync
        self.executor = SupervisedExecutor(
            policy=policy,
            workers=workers,
            chaos=chaos,
            warmup=CAMPAIGN_WARMUP,
        )

    def config_hash(self) -> str:
        """Stable hash of the flown configuration (same as Campaign's)."""
        return self._campaign.config_hash()

    # -- the run loop ------------------------------------------------------------

    def run(
        self, results: ResultsDirectory, resume: bool = False
    ) -> ResilientRunReport:
        """Fly (or resume) the campaign, checkpointing every unit.

        With ``resume=True`` an existing journal under *results* is
        loaded, its config hash checked against this configuration, and
        only the units it does not hold are flown.  Otherwise the
        journal starts afresh, and what a previous run left under
        *results* (``campaign.json``, ``failures.json``,
        ``manifest.json``, the plan's ``.dmesg`` files) is removed
        before the first unit flies.
        """
        telemetry = self.context.telemetry or NULL_TELEMETRY
        labels = [plan.label for plan in self.plans]
        header = JournalHeader(
            config_hash=self.config_hash(),
            seed=self.context.seed,
            time_scale=self.context.time_scale,
            units=tuple(labels),
        )
        journal_path = results.journal_path(ensure_root=True)

        # Resumed unit payloads by label.
        completed: Dict[str, dict] = {}
        salvaged = 0
        if resume:
            loaded = CampaignJournal.load(journal_path)
            stored_header, salvaged = loaded.header, loaded.salvaged
            if stored_header.config_hash != header.config_hash:
                raise ReproIOError(
                    f"journal at {journal_path!r} was written by a "
                    f"different campaign configuration "
                    f"(hash {stored_header.config_hash[:12]}... vs "
                    f"{header.config_hash[:12]}...); refusing to resume"
                )
            # Drop journal entries for units no longer in the plan
            # (config hash covers plans, so this cannot happen unless
            # the hash matched -- keep it as a hard invariant anyway).
            # A JournalEntry's fields are the unit payload's keys.
            completed = {
                key: vars(entry)
                for key, entry in loaded.entries.items()
                if key in set(labels)
            }
            if salvaged:
                telemetry.count("resilient.journal_salvaged", n=salvaged)
            telemetry.count("resilient.resumed_units", n=len(completed))
            # Truncate to the last valid line so a salvaged torn tail
            # is removed before new records are appended after it.
            journal = CampaignJournal(journal_path, fsync=self.fsync).reopen(
                valid_end=loaded.valid_end
            )
        else:
            results.discard_run(labels)
            journal = CampaignJournal.create(
                journal_path, header, fsync=self.fsync
            )

        # The campaign is planned once (stable unit ids), journaled
        # units are settled as recovered with their payloads, and only
        # the remainder is leased to the executor.
        plan = self._campaign.plan_campaign()
        broker = Broker(telemetry=telemetry)
        broker.submit(plan)
        reports: Dict[str, UnitReport] = {}
        for unit in plan.units:
            payload = completed.get(unit.label)
            if payload is not None:
                broker.mark_recovered(unit.unit_id, payload)
                reports[unit.label] = UnitReport(
                    key=unit.label,
                    status="resumed",
                    attempts=payload["attempts"],
                    retries=0,
                    timeouts=0,
                )

        def _checkpoint(lease, report: UnitReport, payload) -> None:
            reports[lease.label] = report
            if payload is None:
                return
            journal.append_unit(JournalEntry(**payload))
            if self.chaos is None or self.chaos.crash_after_units is None:
                return
            journaled = len(broker.entries_for(plan.submission_id))
            if journaled >= self.chaos.crash_after_units:
                raise SimulatedCrash(
                    f"chaos: simulated crash after {journaled} journaled "
                    f"unit(s)"
                )

        try:
            with telemetry.span(
                "campaign.resilient_run",
                sessions=len(self.plans),
                resumed=len(completed),
            ):
                broker.drain(
                    self.executor,
                    unit_payload,
                    on_settled=_checkpoint,
                    telemetry=self.context.telemetry,
                )
        finally:
            journal.close()
            self.executor.close()

        entries = broker.entries_for(plan.submission_id)
        for entry in entries:
            telemetry.merge_snapshot(entry["metrics"])
        return ResilientRunReport(
            campaign_dict=campaign_dict_from_entries(entries),
            unit_reports=[reports[label] for label in labels],
            resumed_units=len(completed),
            salvaged_lines=salvaged,
        )
