"""CampaignService: the asyncio front-end over the broker.

One ``repro-campaign serve ROOT`` process is a *campaign service*: it
watches ``ROOT/jobs/`` for dropped spec files, optionally listens on a
local HTTP port, leases units from its broker to a
:class:`~repro.resilient.SupervisedExecutor` worker pool, commits every
completion through the shared scheduler directory, and assembles each
finished submission into ``ROOT/results/<submission>/campaign.json`` --
byte-identical to what ``repro-campaign run`` writes for the same spec.

Concurrency model
-----------------
One asyncio loop owns all scheduling state.  Work unit batches run in a
worker thread (``asyncio.to_thread``) because the supervised executor
is synchronous; the only cross-thread touch points are the settlement
callback and the heartbeat task, both serialized through one lock.  A
heartbeat task extends the batch's leases at a third of the TTL, so a
*live* worker never loses its lease mid-unit -- only a killed one does,
which is exactly when another broker should take over.

Shutdown
--------
SIGTERM/SIGINT set a flag; the loop stops accepting and leasing,
finishes (drains) the in-flight batch -- every completed unit is
committed and journaled -- writes a final status snapshot, and exits
143 with a resume hint.  A later ``serve`` on the same root recovers:
accepted-but-unassembled submissions are resubmitted, committed units
are adopted from the shared directory, and only the rest is re-leased.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from .. import __version__
from ..engine import CAMPAIGN_WARMUP
from ..errors import ReproError, SchedulerBusy, SchedulerError
from ..io.atomic import atomic_write_json, atomic_write_text
from ..io.json_store import campaign_dict_from_entries, unit_payload
from ..io.results_dir import ResultsDirectory
from ..resilient import EventJournal, SupervisedExecutor, SupervisionPolicy
from ..scheduler import Broker, CampaignPlan, CampaignSpec, DirectoryStore
from ..scheduler.planner import plan_campaign
from ..telemetry import RunManifest, Telemetry
from . import layout

#: How stale a ``status.json`` may be and still count as "a broker is
#: alive there" for client-side backpressure checks.
STATUS_STALE_S = 60.0


@dataclass
class ServiceConfig:
    """Tunables of one campaign service process."""

    root: str
    workers: int = 2
    capacity: Optional[int] = 64
    lease_ttl_s: float = 15.0
    poll_s: float = 0.5
    http_port: Optional[int] = None
    idle_exit_s: Optional[float] = None
    broker_id: Optional[str] = None
    timeout_s: Optional[float] = None
    retries: int = 2
    #: Run the post-job gates (:mod:`repro.validate.postjob`) on every
    #: assembled submission, writing ``validation.json`` next to
    #: ``campaign.json`` and surfacing the verdict in ``status.json``.
    validate: bool = False
    #: Store-level chaos plan (inline JSON or a path, parsed by
    #: :meth:`~repro.scheduler.StoreChaosSpec.from_json`): wraps the
    #: scheduler directory in a :class:`~repro.scheduler.FaultyStore`.
    #: Harness self-test only -- the CI ``chaos-store`` job drives a
    #: 2-broker drain through it.
    store_chaos: Optional[str] = None

    def resolved_broker_id(self) -> str:
        return self.broker_id or f"broker-{os.getpid()}"


class CampaignService:
    """The serve-loop state machine (see module docstring)."""

    def __init__(
        self, config: ServiceConfig, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.config = config
        self.root = config.root
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.broker_id = config.resolved_broker_id()
        layout.ensure_layout(self.root)
        if config.store_chaos:
            from ..scheduler import FaultyStore, StoreChaosSpec

            self.store: DirectoryStore = FaultyStore(
                layout.scheduler_dir(self.root),
                StoreChaosSpec.from_json(config.store_chaos),
                telemetry=self.telemetry,
            )
        else:
            self.store = DirectoryStore(
                layout.scheduler_dir(self.root), telemetry=self.telemetry
            )
        self.journal = EventJournal(
            os.path.join(
                layout.scheduler_dir(self.root),
                f"journal-{self.broker_id}.jsonl",
            ),
            header={"schema": 1, "broker": self.broker_id},
        )
        self.broker = Broker(
            capacity=config.capacity,
            lease_ttl_s=config.lease_ttl_s,
            store=self.store,
            telemetry=self.telemetry,
            broker_id=self.broker_id,
            journal=self.journal,
        )
        self.executor = SupervisedExecutor(
            policy=SupervisionPolicy(
                timeout_s=config.timeout_s, max_retries=config.retries
            ),
            workers=config.workers,
            warmup=CAMPAIGN_WARMUP,
        )
        #: Serializes broker access between the asyncio loop and the
        #: executor thread's settlement callback.
        self._lock = threading.Lock()
        self._plans: Dict[str, CampaignPlan] = {}
        self._assembled: Set[str] = set()
        #: Post-job gate verdicts by submission id (``--validate``).
        self._validation: Dict[str, bool] = {}
        self._stopping = False
        self._stop_signal: Optional[int] = None
        self._last_activity = time.monotonic()
        self._inflight = 0

    # -- submission paths --------------------------------------------------------

    def submit_spec(self, spec: CampaignSpec):
        """Plan and queue one spec; persist it under ``jobs/accepted/``.

        Raises :class:`~repro.errors.SchedulerBusy` (nothing queued,
        nothing persisted) when the bounded queue cannot take it.
        """
        plan = plan_campaign(spec, with_metrics=self.telemetry.enabled)
        with self._lock:
            submission = self.broker.submit(plan)
        sid = submission.submission_id
        self._plans.setdefault(sid, plan)
        accepted = os.path.join(
            layout.accepted_dir(self.root), f"{sid}.json"
        )
        if not os.path.exists(accepted):
            atomic_write_text(accepted, spec.to_json())
        self._last_activity = time.monotonic()
        return submission

    def cancel_submission(self, submission_id: str) -> int:
        with self._lock:
            dropped = self.broker.cancel(submission_id)
        self._last_activity = time.monotonic()
        return dropped

    def scan_jobs_once(self) -> int:
        """Ingest dropped job files; returns how many were consumed.

        A job that the queue cannot take yet is *left in place* -- the
        file queue is the backpressure buffer for file-based clients --
        and scanning stops so later jobs cannot jump the queue.
        """
        jobs = layout.jobs_dir(self.root)
        consumed = 0
        for name in sorted(os.listdir(jobs)):
            path = os.path.join(jobs, name)
            if not name.endswith(".json") or not os.path.isfile(path):
                continue
            try:
                with open(path) as handle:
                    data = json.load(handle)
            except (json.JSONDecodeError, OSError) as exc:
                self._reject_job(name, path, f"unreadable job file: {exc}")
                consumed += 1
                continue
            if isinstance(data, dict) and "cancel" in data:
                try:
                    self.cancel_submission(str(data["cancel"]))
                except SchedulerError as exc:
                    self._reject_job(name, path, str(exc))
                else:
                    os.unlink(path)
                consumed += 1
                continue
            try:
                spec = CampaignSpec.from_dict(data)
            except SchedulerError as exc:
                self._reject_job(name, path, str(exc))
                consumed += 1
                continue
            try:
                self.submit_spec(spec)
            except SchedulerBusy:
                break
            os.unlink(path)
            consumed += 1
        return consumed

    def _reject_job(self, name: str, path: str, reason: str) -> None:
        rejected = os.path.join(layout.rejected_dir(self.root), name)
        os.replace(path, rejected)
        atomic_write_text(f"{rejected}.error.txt", reason + "\n")
        self.telemetry.count("service.jobs_rejected")

    def recover(self) -> int:
        """Resubmit accepted-but-unassembled submissions (startup).

        A submission is assembled once its ``failures.json`` exists --
        the last artifact :meth:`_assemble_one` writes -- so one killed
        mid-assembly is assembled again in full.  Committed units come
        back from the shared scheduler directory via the broker's
        submit-time recovery; only the remainder will be leased again.
        """
        accepted = layout.accepted_dir(self.root)
        recovered = 0
        for name in sorted(os.listdir(accepted)):
            if not name.endswith(".json"):
                continue
            sid = name[: -len(".json")]
            results = ResultsDirectory(layout.results_dir(self.root, sid))
            if os.path.exists(results.failures_path()):
                self._assembled.add(sid)
                continue
            with open(os.path.join(accepted, name)) as handle:
                spec = CampaignSpec.from_json(handle.read())
            self.submit_spec(spec)
            recovered += 1
        return recovered

    # -- the batch engine --------------------------------------------------------

    def _settle(self, lease, report, result) -> None:
        """Executor-thread callback: commit or fail one finished unit."""
        with self._lock:
            if report.ok:
                payload = unit_payload(lease, report, result)
                if self.broker.complete(lease, payload=payload):
                    self.telemetry.merge_snapshot(payload["metrics"])
            else:
                self.broker.fail(lease, report.error or "quarantined")

    async def _heartbeat(self, leases: List) -> None:
        interval = max(self.config.lease_ttl_s / 3.0, 0.05)
        live = list(leases)
        while live:
            await asyncio.sleep(interval)
            still = []
            with self._lock:
                for lease in live:
                    try:
                        still.append(self.broker.heartbeat(lease))
                    except ReproError:
                        pass  # settled (or taken over) meanwhile
            live = still

    async def _run_batch(self, leases: List) -> None:
        self._inflight = len(leases)
        heartbeat = asyncio.ensure_future(self._heartbeat(leases))
        try:
            await asyncio.to_thread(
                self.executor.map,
                [lease.unit for lease in leases],
                lambda index, report, result: self._settle(
                    leases[index], report, result
                ),
                telemetry=self.telemetry,
            )
        finally:
            self._inflight = 0
            heartbeat.cancel()
            try:
                await heartbeat
            except asyncio.CancelledError:
                pass
        self._last_activity = time.monotonic()

    # -- assembly ----------------------------------------------------------------

    def assemble_settled(self) -> List[str]:
        """Write results for every newly settled submission."""
        written = []
        with self._lock:
            submissions = self.broker.submissions()
            ready = [
                sub
                for sub in submissions
                if sub.submission_id not in self._assembled
                and not sub.cancelled
                and self.broker.is_settled(sub.submission_id)
            ]
            payloads = {
                sub.submission_id: self.broker.entries_for(
                    sub.submission_id
                )
                for sub in ready
            }
        for sub in ready:
            sid = sub.submission_id
            self._assemble_one(sub, payloads[sid])
            self._assembled.add(sid)
            written.append(sid)
            self.telemetry.count("service.assembled")
        return written

    def _assemble_one(self, submission, entries: List[dict]) -> None:
        """Mirror ``ResilientRunReport.persist`` from committed payloads.

        ``campaign.json`` and every ``<label>.dmesg`` are written from
        the committed payload bytes, assembled by the same
        :func:`~repro.io.json_store.campaign_dict_from_entries` as
        ``run`` (never a decode/re-encode round trip), so a
        service-assembled campaign is byte-identical to a
        ``repro-campaign run`` of the same spec -- the differential
        suite's ``service`` pairing holds the harness to that.
        ``failures.json`` is written last: its existence is what
        ``submit --wait`` and :meth:`recover` read as "this submission
        is done".
        """
        sid = submission.submission_id
        campaign_dict = campaign_dict_from_entries(entries)
        results = ResultsDirectory(layout.results_dir(self.root, sid))
        results.save_campaign_dict(campaign_dict)
        results.save_dmesg(campaign_dict)
        plan = self._plans.get(sid)
        manifest = RunManifest(
            seed=plan.seed if plan else 0,
            time_scale=plan.time_scale if plan else 0.0,
            executor=self.executor.name,
            workers=max(self.config.workers, 1),
            version=__version__,
            config_hash=submission.config_hash,
            stages={},
            metrics=self.telemetry.metrics.to_dict(),
            spans=[],
            command=f"repro-campaign serve {self.root}",
        )
        results.save_manifest(manifest)
        verdict = (
            self._validate_one(sid, campaign_dict)
            if self.config.validate
            else None
        )
        failed = {
            unit_id: status
            for unit_id, status in self._unit_statuses(sid).items()
            if status != "done"
        }
        atomic_write_json(
            results.failures_path(),
            {
                "schema": 1,
                "ok": not failed,
                "submission_id": sid,
                "failed_units": failed,
            },
        )
        self._record_event("assembled", submission=sid, ok=not failed)
        if verdict is not None:
            self._record_event("validated", submission=sid, ok=verdict)

    def _validate_one(self, sid: str, campaign_dict: dict) -> bool:
        """Run the post-job gates on one assembled submission.

        The verdict lands in ``validation.json`` next to
        ``campaign.json`` (the full gate report) and in the
        ``validation`` map of ``status.json`` -- so a drifted result is
        visible to ``repro-campaign status`` without opening the results
        directory -- and is returned for the scheduling journal.  A gate
        failure never unwinds the assembly: the campaign artifacts are
        already on disk and remain the evidence the gates are
        complaining about.
        """
        from ..validate.postjob import postjob_report

        try:
            report = postjob_report(campaign_dict)
        except ReproError as exc:
            report = {
                "schema": 1,
                "ok": False,
                "gates": [],
                "error": str(exc),
            }
        atomic_write_json(
            os.path.join(
                layout.results_dir(self.root, sid), "validation.json"
            ),
            report,
        )
        self._validation[sid] = bool(report["ok"])
        self.telemetry.count(
            "service.validated", ok="yes" if report["ok"] else "no"
        )
        return report["ok"]

    def _unit_statuses(self, submission_id: str) -> Dict[str, str]:
        plan = self._plans.get(submission_id)
        if plan is None:
            return {}
        with self._lock:
            return {
                unit.unit_id: self.broker.unit_status(unit.unit_id)
                for unit in plan.units
            }

    def _record_event(self, event: str, **fields: object) -> None:
        self.journal.append(
            dict(
                fields,
                kind="event",
                event=event,
                broker=self.broker_id,
                t_unix=time.time(),
            )
        )

    # -- status ------------------------------------------------------------------

    def status_dict(self) -> dict:
        with self._lock:
            status = self.broker.status()
        status.update(
            {
                "state": "stopping" if self._stopping else "serving",
                "updated_unix": time.time(),
                "pid": os.getpid(),
                "workers": self.config.workers,
                "poll_s": self.config.poll_s,
                "inflight_batch": self._inflight,
                "assembled": sorted(self._assembled),
                "validation": dict(sorted(self._validation.items())),
                "http_port": self.config.http_port,
            }
        )
        return status

    def write_status(self, state: Optional[str] = None) -> None:
        status = self.status_dict()
        if state is not None:
            status["state"] = state
        atomic_write_json(
            layout.status_path(self.root), status, fsync=False
        )

    # -- the serve loop ----------------------------------------------------------

    def request_stop(self, signum: int) -> None:
        """Signal-safe stop request: drain in-flight, then exit."""
        self._stopping = True
        self._stop_signal = signum

    def _idle(self) -> bool:
        if self._inflight or self.broker.pending_count():
            return False
        jobs = layout.jobs_dir(self.root)
        return not any(
            name.endswith(".json")
            and os.path.isfile(os.path.join(jobs, name))
            for name in os.listdir(jobs)
        )

    async def _serve(self) -> int:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_stop, sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        http_server = None
        if self.config.http_port is not None:
            from .http import start_http

            http_server = await start_http(self)
        self.recover()
        self.write_status()
        try:
            while not self._stopping:
                self.scan_jobs_once()
                with self._lock:
                    leases = self.broker.lease(
                        self.broker_id,
                        limit=max(self.config.workers, 1),
                    )
                if leases:
                    await self._run_batch(leases)
                self.assemble_settled()
                self.write_status()
                if leases:
                    continue
                if (
                    self.config.idle_exit_s is not None
                    and self._idle()
                    and time.monotonic() - self._last_activity
                    >= self.config.idle_exit_s
                ):
                    break
                await asyncio.sleep(self.config.poll_s)
        finally:
            if http_server is not None:
                http_server.close()
                await http_server.wait_closed()
            self.assemble_settled()
            self.write_status(state="stopped")
            self.journal.close()
            self.executor.close()
        if self._stopping:
            from ..cli import EXIT_INTERRUPTED

            queued = self.broker.pending_count()
            print(
                f"interrupted (signal {self._stop_signal}); in-flight "
                f"leases drained and committed, {queued} unit(s) still "
                f"queued -- resume with:\n"
                f"  repro-campaign serve {self.root}",
                file=sys.stderr,
            )
            return EXIT_INTERRUPTED
        return 0

    def serve(self) -> int:
        """Run the service until idle-exit or a stop signal; exit code."""
        return asyncio.run(self._serve())


def check_backpressure(root: str, incoming_units: int = 4) -> None:
    """Client-side bounded-queue check for file-based submission.

    Reads the live broker's ``status.json``; when a recent snapshot
    shows the queue cannot take *incoming_units* more, raises
    :class:`~repro.errors.SchedulerBusy` (the CLI maps it to exit 5).
    A missing or stale snapshot passes -- with no broker alive, the
    job file simply waits in ``jobs/``.
    """
    try:
        with open(layout.status_path(root)) as handle:
            status = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return
    if status.get("state") not in ("serving", "stopping"):
        return
    updated = status.get("updated_unix")
    if not isinstance(updated, (int, float)):
        return
    if time.time() - updated > STATUS_STALE_S:
        return
    capacity = status.get("capacity")
    queued = status.get("queued_units", 0)
    if capacity is None:
        return
    if queued + incoming_units > capacity:
        raise SchedulerBusy(
            f"campaign service at {root!r} is at capacity "
            f"({queued} unit(s) queued, capacity {capacity}); "
            f"retry once the queue drains or raise --capacity"
        )
