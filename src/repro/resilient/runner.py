"""ResilientCampaign: checkpointed, supervised, resumable campaign runs.

The plain :class:`~repro.harness.campaign.Campaign` loses everything if
one session raises or the run is interrupted; this runner adds the
operational layer a multi-day beam campaign actually needs:

* the campaign is planned once (stable ``<hash12>/<label>`` unit ids)
  and drained through a :class:`~repro.scheduler.Broker` backed by a
  :class:`~repro.scheduler.DirectoryStore` under ``OUTDIR/scheduler``,
  as ``explore`` and ``serve`` drain theirs: every completed unit is
  committed *as it completes*, as a checksummed record that is read
  back and verified;
* a crashed or SIGTERMed run resumes with ``--resume``: the broker's
  submit recovers the committed units (a commit that fails
  verification is quarantined and its unit flown again), and only the
  missing units are flown;
* because session streams derive from ``(seed, label)`` alone -- never
  from cross-session draw order -- and because each commit holds the
  unit's compact session record, which the one renderer turns into
  ``campaign.json``, a resumed run's ``campaign.json`` is
  byte-identical to the uninterrupted run's;
* work units fly under :class:`~repro.resilient.SupervisedExecutor`
  (timeouts, retries, quarantine, parallel-to-serial degradation), so a
  poison unit costs its own data, not the campaign's.

Telemetry: per-unit metric snapshots ride in the commits, so a resumed
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
from ..scheduler import Broker, DirectoryStore
from ..telemetry import NULL_TELEMETRY
from ..core.report import Table
from .chaos import ChaosSpec, SimulatedCrash
from .policy import SupervisionPolicy
from .supervisor import SupervisedExecutor, UnitReport


class ResilientRunReport:
    """Everything a fault-tolerant run produced, failures included.

    Attributes
    ----------
    campaign_dict:
        The encoded campaign (what ``campaign.json`` holds), rendered
        from the unit payloads' session records and never decoded;
        resumed sessions render from their store commits, quarantined
        ones are absent.
    unit_reports:
        One :class:`~repro.resilient.supervisor.UnitReport` per plan,
        in plan order (status ``ok``, ``resumed`` or ``quarantined``).
    resumed_units:
        Units recovered from the store's commits (0 on a fresh run).
    """

    def __init__(
        self,
        campaign_dict: dict,
        unit_reports: List[UnitReport],
        resumed_units: int = 0,
    ) -> None:
        self.campaign_dict = campaign_dict
        self.unit_reports = unit_reports
        self.resumed_units = resumed_units

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
        """JSON-shaped failure report (persisted as ``failures.json``).

        ``salvaged_lines`` is always 0: commits are verified records, so
        a resume never salvages a torn one; the key keeps the schema.
        """
        return {
            "schema": 1,
            "ok": self.ok,
            "resumed_units": self.resumed_units,
            "salvaged_lines": 0,
            "units": [r.to_dict() for r in self.unit_reports],
        }

    def persist(self, results: ResultsDirectory) -> List[str]:
        """Write campaign.json (+ dmesg logs, + failures.json) atomically.

        ``campaign.json`` and every ``<label>.dmesg`` come from
        :attr:`campaign_dict` -- rendered from the committed session
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

    A finished unit is kept only as its encoded payload, committed to
    the run's store and held by its broker, and assembled by the same
    :mod:`repro.io.json_store` functions as in ``serve``; the live
    session result is dropped.

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
    """

    def __init__(
        self,
        context: ExecutionContext,
        policy: Optional[SupervisionPolicy] = None,
        workers: int = 0,
        chaos: Optional[ChaosSpec] = None,
        tech_node: Optional[str] = None,
    ) -> None:
        # Reuse Campaign's plan preparation (time scaling, flux
        # override, node scaling) so both runners fly literally the
        # same plans from the same inputs.
        self._campaign = Campaign(context=context, tech_node=tech_node)
        self.context = context
        self.plans = self._campaign.plans
        self.chaos = chaos
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
        """Fly (or resume) the campaign, committing every unit.

        With ``resume=True`` the store under *results* must exist and
        hold only this configuration's commits; they are recovered and
        only the units it does not hold are flown.  Otherwise what a
        previous run left under *results* (its store, ``campaign.json``,
        ``failures.json``, ``manifest.json``, the plan's ``.dmesg``
        files) is removed before the first unit flies.
        """
        telemetry = self.context.telemetry or NULL_TELEMETRY
        labels = [plan.label for plan in self.plans]
        plan = self._campaign.plan_campaign()
        root = results.scheduler_dir()
        if not resume:
            results.discard_run(labels)
        elif not results.has_checkpoints():
            raise ReproIOError(
                f"no checkpoints under {root!r} to resume from "
                f"(run without --resume first)"
            )
        store = DirectoryStore(root)
        if resume:
            store.check_config(plan.config_hash)
        # A fixed broker id: a resumed run owns whatever its killed
        # predecessor left leased, and its newer fencing epoch
        # supersedes the dead process's.  Submitting recovers the
        # committed units; only the remainder is leased.
        broker = Broker(
            lease_ttl_s=3600.0,
            store=store,
            telemetry=telemetry,
            broker_id="run",
        )
        broker.submit(plan)
        reports: Dict[str, UnitReport] = {}
        for unit in plan.units:
            payload = broker.unit_payload(unit.unit_id)
            if payload is not None:
                reports[unit.label] = UnitReport(
                    key=unit.label,
                    status="resumed",
                    attempts=payload["attempts"],
                    retries=0,
                    timeouts=0,
                )
        resumed = len(reports)
        if resume:
            telemetry.count("resilient.resumed_units", n=resumed)

        def _settled(lease, report: UnitReport, payload) -> None:
            reports[lease.label] = report
            if (
                payload is None
                or self.chaos is None
                or self.chaos.crash_after_units is None
            ):
                return
            committed = len(broker.entries_for(plan.submission_id))
            if committed >= self.chaos.crash_after_units:
                raise SimulatedCrash(
                    f"chaos: simulated crash after {committed} committed "
                    f"unit(s)"
                )

        try:
            with telemetry.span(
                "campaign.resilient_run",
                sessions=len(self.plans),
                resumed=resumed,
            ):
                broker.drain(
                    self.executor,
                    unit_payload,
                    on_settled=_settled,
                    telemetry=self.context.telemetry,
                )
        finally:
            self.executor.close()

        entries = broker.entries_for(plan.submission_id)
        for entry in entries:
            telemetry.merge_snapshot(entry["metrics"])
        return ResilientRunReport(
            campaign_dict=campaign_dict_from_entries(entries),
            unit_reports=[reports[label] for label in labels],
            resumed_units=resumed,
        )
