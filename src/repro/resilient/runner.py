"""ResilientCampaign: checkpointed, supervised, resumable campaign runs.

The plain :class:`~repro.harness.campaign.Campaign` loses everything if
one session raises or the run is interrupted; this runner adds the
operational layer a multi-day beam campaign actually needs:

* every completed work unit is checkpointed to an append-only JSONL
  journal (fsynced per unit) *as it completes*;
* a crashed or SIGTERMed run resumes with ``--resume``: journaled units
  are loaded back, only the missing ones are flown;
* because session streams derive from ``(seed, label)`` alone -- never
  from cross-session draw order -- and because the journal stores the
  *encoded* session payload, a resumed run's ``campaign.json`` is
  byte-identical to the uninterrupted run's;
* work units fly under :class:`~repro.resilient.SupervisedExecutor`
  (timeouts, retries, quarantine, parallel-to-serial degradation), so a
  poison unit costs its own data, not the campaign's.

Telemetry: per-unit metric snapshots ride in the journal, so a resumed
run's merged counters equal the uninterrupted run's (the resume itself
is visible separately as ``resilient.resumed_units``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..engine import CAMPAIGN_WARMUP, ExecutionContext
from ..errors import ReproIOError, SupervisionError
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
        The encoded campaign (what ``campaign.json`` holds), assembled
        from the unit payloads and never decoded; resumed sessions keep
        their journal bytes, quarantined ones are absent.
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
        :attr:`campaign_dict` -- the journal payload bytes -- not from a
        decode/re-encode round trip, which is what keeps
        interrupted-and-resumed runs byte-identical to uninterrupted ones.
        """
        written = [results.save_campaign_dict(self.campaign_dict)]
        written.extend(results.save_dmesg(self.campaign_dict).values())
        written.append(
            atomic_write_json(results.failures_path(), self.failures_dict())
        )
        return written


class ResilientCampaign:
    """A :class:`Campaign` wrapped in checkpointing and supervision.

    A finished unit is kept only as its encoded payload, built and
    assembled by the same :mod:`repro.io.json_store` functions as in
    ``serve``; the live session result is dropped.

    Parameters
    ----------
    plans / seed / time_scale / context / vectorized / tech_node:
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
        plans=None,
        seed: int = 2023,
        time_scale: float = 1.0,
        context: Optional[ExecutionContext] = None,
        vectorized: bool = True,
        policy: Optional[SupervisionPolicy] = None,
        workers: int = 0,
        chaos: Optional[ChaosSpec] = None,
        fsync: str = "unit",
        tech_node: Optional[str] = None,
    ) -> None:
        # Reuse Campaign's plan preparation (time scaling, flux
        # override, context handling, node scaling) so both runners fly
        # literally the same plans from the same inputs.
        self._campaign = Campaign(
            plans=plans,
            seed=seed,
            time_scale=time_scale,
            context=context,
            vectorized=vectorized,
            tech_node=tech_node,
        )
        self.tech_node = self._campaign.tech_node
        self.context = self._campaign.context
        self.plans = self._campaign.plans
        self.vectorized = vectorized
        self.policy = policy or SupervisionPolicy()
        self.workers = int(workers)
        self.chaos = chaos
        self.fsync = fsync
        self.executor = SupervisedExecutor(
            policy=self.policy,
            workers=self.workers,
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

        # Scheduling goes through the broker: the campaign is planned
        # once (stable unit ids), journaled units are settled as
        # recovered, and only the remainder is leased to the executor.
        plan = self._campaign.plan_campaign(with_metrics=telemetry.enabled)
        broker = Broker(telemetry=telemetry)
        broker.submit(plan)
        unit_ids = {unit.label: unit.unit_id for unit in plan.units}
        for label in completed:
            broker.mark_recovered(unit_ids[label], None)

        fresh: Dict[str, dict] = {}
        fresh_reports: Dict[str, UnitReport] = {}

        def _checkpoint(
            index: int, lease, report: UnitReport, result
        ) -> None:
            fresh_reports[report.key] = report
            if report.ok:
                payload = unit_payload(report.key, report.attempts, result)
                journal.append_unit(JournalEntry(**payload))
                fresh[report.key] = payload
            if (
                report.ok
                and self.chaos is not None
                and self.chaos.crash_after_units is not None
                and len(completed) + len(fresh)
                >= self.chaos.crash_after_units
            ):
                raise SimulatedCrash(
                    f"chaos: simulated crash after "
                    f"{len(completed) + len(fresh)} journaled unit(s)"
                )

        try:
            with telemetry.span(
                "campaign.resilient_run",
                sessions=len(self.plans),
                resumed=len(completed),
            ):
                broker.drain(
                    self.executor,
                    telemetry=self.context.telemetry,
                    on_result=_checkpoint,
                )
        finally:
            journal.close()
            self.executor.close()

        return self._assemble(
            completed, fresh, fresh_reports, telemetry, salvaged
        )

    # -- assembly ----------------------------------------------------------------

    def _assemble(
        self,
        completed: Dict[str, dict],
        fresh: Dict[str, dict],
        fresh_reports: Dict[str, UnitReport],
        telemetry,
        salvaged: int,
    ) -> ResilientRunReport:
        entries: List[dict] = []
        unit_reports: List[UnitReport] = []
        for plan in self.plans:
            label = plan.label
            if label in completed:
                payload = completed[label]
                report = UnitReport(
                    key=label,
                    status="resumed",
                    attempts=payload["attempts"],
                    retries=0,
                    timeouts=0,
                )
            else:
                payload = fresh.get(label)
                report = fresh_reports.get(label)
                if report is None:
                    raise SupervisionError(
                        f"unit {label!r} neither completed nor reported"
                    )
            if payload is not None:
                telemetry.merge_snapshot(payload["metrics"])
                entries.append(payload)
            unit_reports.append(report)

        return ResilientRunReport(
            campaign_dict=campaign_dict_from_entries(entries),
            unit_reports=unit_reports,
            resumed_units=len(completed),
            salvaged_lines=salvaged,
        )
