"""The campaign broker: a leased, prioritized, bounded work queue.

The broker owns scheduling and nothing else.  It never runs a work
unit, never touches an RNG stream, and never decodes a session payload
-- it hands out *leases* on planned units and keeps the encoded
payload each one came back with, never the live result:

* **submit** queues a planned campaign, deduping on the config hash
  (the same physics submitted twice is one submission) and refusing --
  with the typed :class:`~repro.errors.SchedulerBusy` -- when the
  bounded queue is full;
* **lease** pops the highest-priority pending units, stamping each
  with a worker id, a monotonically-versioned token and a deadline;
  :meth:`heartbeat` extends a live lease, :meth:`expire` returns
  overdue ones to the queue (the dead-worker pickup path);
* **complete** settles a unit exactly once: duplicate completions --
  an expired worker finishing late, two brokers racing on a shared
  directory -- are detected (in-memory by status, cross-process by the
  store's exclusive commit) and discarded;
* **cancel** drops a submission's pending units and marks it so its
  results are never assembled;
* **settle** runs a leased batch through a supervised executor and
  completes each unit with the payload a caller's ``encode`` builds
  (or fails it); **drain** settles until nothing is pending -- the one
  settle path of ``run``, ``explore`` and the broker pairings.

With a :class:`~repro.scheduler.store.DirectoryStore` attached, every
commit also lands as an exclusive file in the shared directory and
every lease is published there, so a *second broker process* pointed at
the same directory recovers committed units instantly and takes over
expired leases -- multi-host scheduling over a shared filesystem, with
correctness resting only on the commit's exclusivity plus the fencing
epoch.  A store-backed broker registers a fencing epoch at
construction and stamps it on every lease and commit; when a write is
rejected with :class:`~repro.errors.StaleFencingToken` (this broker was
superseded on that unit), the broker adopts the winning commit if one
exists, re-queues the unit otherwise, and re-registers for a fresh
epoch so it keeps participating -- the stale write itself is never
adopted.

Determinism contract: scheduling decides *when and where* a unit runs,
never *what it computes* -- units derive their streams from
``(seed, label)`` alone, so any lease/expire/re-lease/complete
interleaving that settles every unit yields byte-identical merged
results.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..engine.executor import WorkUnit
from ..errors import (
    LeaseError,
    SchedulerBusy,
    SchedulerError,
    StaleFencingToken,
)
from ..telemetry import NULL_TELEMETRY
from .planner import CampaignPlan, PlannedUnit
from .store import DirectoryStore

#: Unit lifecycle states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Default lease time-to-live without a heartbeat, in seconds.
DEFAULT_LEASE_TTL_S = 30.0


@dataclass(frozen=True)
class Lease:
    """One worker's time-bounded claim on one unit."""

    unit_id: str
    label: str
    seq: int
    submission_id: str
    worker: str
    token: int
    deadline: float
    unit: WorkUnit


@dataclass
class _UnitRecord:
    """Broker-side bookkeeping for one planned unit."""

    planned: PlannedUnit
    submission_id: str
    priority: int
    sub_seq: int
    status: str = PENDING
    token: int = 0
    worker: Optional[str] = None
    deadline: Optional[float] = None
    payload: Optional[dict] = None
    error: Optional[str] = None


@dataclass
class Submission:
    """One accepted campaign submission."""

    submission_id: str
    name: str
    config_hash: str
    priority: int
    sub_seq: int
    plan: CampaignPlan
    cancelled: bool = False
    deduped: int = 0
    max_workers: Optional[int] = None

    def to_dict(self, unit_states: Dict[str, int]) -> dict:
        return {
            "submission_id": self.submission_id,
            "name": self.name,
            "config_hash": self.config_hash,
            "priority": self.priority,
            "cancelled": self.cancelled,
            "deduped": self.deduped,
            "max_workers": self.max_workers,
            "units": unit_states,
        }


class Broker:
    """The work-queue owner (see module docstring).

    Parameters
    ----------
    capacity:
        Maximum *queued* (pending) units across submissions; ``None``
        is unbounded (``run``, ``explore`` and the pairings).  A
        submission that would overflow is rejected whole with
        :class:`~repro.errors.SchedulerBusy` -- never partially queued.
    lease_ttl_s:
        Seconds a lease stays live without a heartbeat.
    clock:
        Monotonic clock for lease deadlines (injectable in tests).
    store:
        Optional shared-directory state for multi-broker operation.
    telemetry:
        Metrics sink (``scheduler.*`` counters and gauges).
    broker_id:
        This broker's identity in published leases and journals.
    journal:
        Optional :class:`~repro.resilient.EventJournal`; every
        submit/lease/expire/complete/fail/cancel event is appended.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        clock: Callable[[], float] = time.monotonic,
        store: Optional[DirectoryStore] = None,
        telemetry=None,
        broker_id: str = "broker-local",
        journal=None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SchedulerError("broker capacity must be positive")
        if lease_ttl_s <= 0:
            raise SchedulerError("lease ttl must be positive")
        self.capacity = capacity
        self.lease_ttl_s = float(lease_ttl_s)
        self.clock = clock
        self.store = store
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.broker_id = broker_id
        self.journal = journal
        # A store-backed broker fences every write with its epoch; the
        # registration itself is the broker "joining" the shared root.
        self.epoch: Optional[int] = (
            store.register_epoch(broker_id) if store is not None else None
        )
        self._submissions: Dict[str, Submission] = {}
        self._units: Dict[str, _UnitRecord] = {}
        self._heap: List[tuple] = []
        self._sub_seq = 0
        self._token = 0
        # Incrementally-maintained state counts: settling a unit used
        # to rescan every record (O(n) per completion, O(n^2) per
        # drain), which dominated the drain overhead at scale.
        self._pending_units = 0
        self._inflight_units = 0
        # Each submission's records (plan order) and state counts, kept
        # exact by submit and _set_status, so no query scans every unit
        # ever submitted.
        self._sub_records: Dict[str, List[_UnitRecord]] = {}
        self._sub_counts: Dict[str, Dict[str, int]] = {}

    # -- bookkeeping helpers -----------------------------------------------------

    def _record_event(self, event: str, **fields: object) -> None:
        if self.journal is not None:
            self.journal.append(
                dict(
                    fields,
                    kind="event",
                    event=event,
                    broker=self.broker_id,
                    t_unix=time.time(),
                )
            )

    def _push(self, record: _UnitRecord) -> None:
        heapq.heappush(
            self._heap,
            (
                -record.priority,
                record.sub_seq,
                record.planned.seq,
                record.planned.unit_id,
            ),
        )

    def _set_status(self, record: _UnitRecord, status: str) -> None:
        """Transition a record, keeping the state counters exact."""
        old = record.status
        if old == status:
            return
        if old == PENDING:
            self._pending_units -= 1
        elif old == LEASED:
            self._inflight_units -= 1
        if status == PENDING:
            self._pending_units += 1
        elif status == LEASED:
            self._inflight_units += 1
        counts = self._sub_counts[record.submission_id]
        counts[old] -= 1
        counts[status] = counts.get(status, 0) + 1
        record.status = status

    def _refence(self) -> None:
        """Recover from a fencing rejection: take a fresh, higher epoch.

        The rejected write is gone for good -- re-registering only lets
        this broker keep participating with writes that are no longer
        stale.
        """
        self.telemetry.count("scheduler.fenced")
        if self.store is not None:
            self.epoch = self.store.register_epoch(self.broker_id)

    def _requeue_record(self, record: _UnitRecord, reason: str) -> None:
        """Return a leased unit to the queue (fencing/commit fallout)."""
        self._set_status(record, PENDING)
        record.worker = None
        record.deadline = None
        self._push(record)
        self.telemetry.count("scheduler.requeued")
        self._record_event(
            "requeue", unit=record.planned.unit_id, error=reason
        )

    def _update_gauges(self) -> None:
        self.telemetry.set_gauge(
            "scheduler.queue_depth", self._pending_units
        )
        self.telemetry.set_gauge(
            "scheduler.inflight", self._inflight_units
        )

    def pending_count(self) -> int:
        return self._pending_units

    # -- submission --------------------------------------------------------------

    def submit(
        self, plan: CampaignPlan, priority: Optional[int] = None
    ) -> Submission:
        """Queue a planned campaign; dedupe, bound, and journal it."""
        sid = plan.submission_id
        existing = self._submissions.get(sid)
        if existing is not None:
            existing.deduped += 1
            self.telemetry.count("scheduler.deduped")
            self._record_event("dedupe", submission=sid)
            return existing
        effective_priority = (
            priority if priority is not None else plan.priority
        )
        recovered = {}
        if self.store is not None:
            for planned in plan.units:
                payload = self.store.read_commit(planned.unit_id)
                if payload is not None:
                    recovered[planned.unit_id] = payload
        to_queue = len(plan.units) - len(recovered)
        if (
            self.capacity is not None
            and self.pending_count() + to_queue > self.capacity
        ):
            self.telemetry.count("scheduler.rejected")
            self._record_event(
                "reject", submission=sid, queued=self.pending_count()
            )
            raise SchedulerBusy(
                f"queue is full ({self.pending_count()} unit(s) pending, "
                f"capacity {self.capacity}): submission {sid} needs "
                f"{to_queue} more; retry once the queue drains"
            )
        submission = Submission(
            submission_id=sid,
            name=plan.display_name,
            config_hash=plan.config_hash,
            priority=effective_priority,
            sub_seq=self._sub_seq,
            plan=plan,
            max_workers=plan.max_workers,
        )
        self._sub_seq += 1
        self._submissions[sid] = submission
        records = self._sub_records[sid] = []
        self._sub_counts[sid] = {PENDING: len(plan.units)}
        for planned in plan.units:
            record = _UnitRecord(
                planned=planned,
                submission_id=sid,
                priority=effective_priority,
                sub_seq=submission.sub_seq,
            )
            self._units[planned.unit_id] = record
            records.append(record)
            self._pending_units += 1
            if planned.unit_id in recovered:
                self._set_status(record, DONE)
                record.payload = recovered[planned.unit_id]
                # An earlier incarnation of this broker killed between
                # its commit and its lease clear left the lease behind.
                self._clear_own_lease(planned.unit_id)
                self.telemetry.count("scheduler.recovered")
            else:
                self._push(record)
        self.telemetry.count("scheduler.submissions")
        self.telemetry.count("scheduler.submitted", n=to_queue)
        self._record_event(
            "submit",
            submission=sid,
            name=submission.name,
            priority=effective_priority,
            units=len(plan.units),
            recovered=len(recovered),
        )
        self._update_gauges()
        return submission

    # -- leasing -----------------------------------------------------------------

    def lease(
        self,
        worker: str,
        limit: Optional[int] = 1,
        now: Optional[float] = None,
    ) -> List[Lease]:
        """Claim up to *limit* pending units in priority order."""
        now = self.clock() if now is None else now
        self.expire(now)
        leases: List[Lease] = []
        skipped: List[_UnitRecord] = []
        while self._heap and (limit is None or len(leases) < limit):
            _, _, _, unit_id = heapq.heappop(self._heap)
            record = self._units.get(unit_id)
            if record is None or record.status != PENDING:
                continue  # lazily dropped (settled, cancelled, re-queued)
            if self._quota_saturated(record.submission_id):
                skipped.append(record)
                self.telemetry.count("scheduler.quota_deferred")
                continue
            if self.store is not None and self.store.foreign_lease_live(
                unit_id, self.broker_id
            ):
                skipped.append(record)
                continue
            self._token += 1
            self._set_status(record, LEASED)
            record.token = self._token
            record.worker = worker
            record.deadline = now + self.lease_ttl_s
            if self.store is not None and not self._publish_lease(record):
                continue  # fenced twice; the unit went back to the queue
            self.telemetry.count("scheduler.leased")
            self._record_event(
                "lease", unit=unit_id, worker=worker, token=record.token
            )
            leases.append(
                Lease(
                    unit_id=unit_id,
                    label=record.planned.label,
                    seq=record.planned.seq,
                    submission_id=record.submission_id,
                    worker=worker,
                    token=record.token,
                    deadline=record.deadline,
                    unit=record.planned.unit,
                )
            )
        for record in skipped:
            self._push(record)
        self._update_gauges()
        return leases

    def _quota_saturated(self, submission_id: str) -> bool:
        """True when the submission's --max-workers quota is in use."""
        submission = self._submissions.get(submission_id)
        if submission is None or submission.max_workers is None:
            return False
        leased = self._sub_counts[submission_id].get(LEASED, 0)
        return leased >= submission.max_workers

    def _publish_lease(self, record: _UnitRecord) -> bool:
        """Publish a fresh lease to the store; False when fenced twice.

        A fencing rejection here means another broker holds the unit at
        a higher epoch *or* this incarnation was superseded; after
        re-registering, one retry distinguishes the two.  A second
        rejection is a genuinely foreign hold -- the unit goes back to
        the queue.
        """
        unit_id = record.planned.unit_id
        for attempt in (0, 1):
            try:
                self.store.write_lease(
                    unit_id, self.broker_id, self.lease_ttl_s,
                    epoch=self.epoch,
                )
                return True
            except StaleFencingToken:
                self._refence()
                self._record_event("fenced", unit=unit_id, op="lease")
        self._requeue_record(record, "fenced while publishing lease")
        return False

    def heartbeat(self, lease: Lease, now: Optional[float] = None) -> Lease:
        """Extend a live lease; raises LeaseError when it is stale.

        A store-backed heartbeat that is *fenced* (another broker took
        the unit over at a higher epoch) re-queues the unit and raises
        LeaseError: to the worker loop a fenced lease and a stale lease
        are the same event -- stop working on this unit.
        """
        record = self._require_unit(lease.unit_id)
        if record.status != LEASED or record.token != lease.token:
            raise LeaseError(
                f"lease on {lease.unit_id!r} (token {lease.token}) is no "
                f"longer live (unit is {record.status})"
            )
        now = self.clock() if now is None else now
        record.deadline = now + self.lease_ttl_s
        if self.store is not None:
            try:
                self.store.write_lease(
                    lease.unit_id, self.broker_id, self.lease_ttl_s,
                    epoch=self.epoch,
                )
            except StaleFencingToken as exc:
                self._refence()
                self._record_event(
                    "fenced", unit=lease.unit_id, op="heartbeat"
                )
                self._requeue_record(record, "fenced during heartbeat")
                self._update_gauges()
                raise LeaseError(
                    f"lease on {lease.unit_id!r} was fenced: {exc}"
                ) from exc
        self.telemetry.count("scheduler.heartbeats")
        return replace(lease, deadline=record.deadline)

    def expire(self, now: Optional[float] = None) -> List[str]:
        """Return overdue leases to the queue; list the expired ids."""
        now = self.clock() if now is None else now
        expired: List[str] = []
        if not self._inflight_units:
            return expired  # nothing leased, skip the full scan
        for record in self._units.values():
            if (
                record.status == LEASED
                and record.deadline is not None
                and record.deadline <= now
            ):
                self._set_status(record, PENDING)
                record.worker = None
                record.deadline = None
                self._push(record)
                expired.append(record.planned.unit_id)
                self.telemetry.count("scheduler.lease_expired")
                self._record_event("expire", unit=record.planned.unit_id)
        if expired:
            self._update_gauges()
        return expired

    # -- settlement --------------------------------------------------------------

    def complete(self, lease: Lease, payload: Optional[dict] = None) -> bool:
        """Settle a unit with its encoded payload; False for duplicates.

        The broker keeps the payload, never the live result.  A
        store-backed broker requires it; an in-memory one accepts None.

        Exactly-once: the first completion (in-memory) or the first
        exclusive store commit (shared directory) wins; every later
        completion of the same unit -- stale lease, racing broker --
        returns False and changes nothing.  A completion from an
        *expired but not yet re-leased* lease is accepted: the result
        is a pure function of the unit, so discarding it would only
        redo identical work.
        """
        record = self._require_unit(lease.unit_id)
        if record.status == DONE:
            self.telemetry.count("scheduler.duplicates")
            self._record_event(
                "duplicate", unit=lease.unit_id, worker=lease.worker
            )
            return False
        if record.status == CANCELLED:
            return False
        if self.store is not None:
            if payload is None:
                raise SchedulerError(
                    "a store-backed broker needs the encoded payload to "
                    "commit (got payload=None)"
                )
            if not self._commit_to_store(record, lease, payload):
                return False  # settled inside: adopted or re-queued
        self._set_status(record, DONE)
        record.payload = payload
        record.worker = None
        record.deadline = None
        self._clear_own_lease(lease.unit_id)
        self.telemetry.count("scheduler.completed")
        self._record_event(
            "complete", unit=lease.unit_id, worker=lease.worker
        )
        self._update_gauges()
        return True

    def _adopt_commit(
        self, record: _UnitRecord, lease: Lease, payload: dict
    ) -> None:
        """Settle a lost race by adopting the verified winning payload."""
        self._set_status(record, DONE)
        record.payload = payload
        self._clear_own_lease(lease.unit_id)
        self.telemetry.count("scheduler.duplicates")
        self._record_event(
            "duplicate", unit=lease.unit_id, worker=lease.worker
        )

    def _commit_to_store(
        self, record: _UnitRecord, lease: Lease, payload: dict
    ) -> bool:
        """Drive one unit's payload through the hardened commit path.

        True means this broker's bytes won and the caller finishes the
        settlement; False means the unit was settled here instead --
        either a verified foreign commit was adopted, or (when the
        write was fenced / kept failing verification with nothing to
        adopt) the unit went back to the queue.

        The loop exists because losing the link race no longer implies
        a winner: the "winner" may have been quarantined by its own
        readback, freeing the name.  Three dry rounds -- lost the race,
        but nothing adoptable survived -- means the shared medium is
        eating every record; the unit is re-queued rather than spinning.
        """
        unit_id = lease.unit_id
        for _ in range(3):
            try:
                if self.store.try_commit(
                    unit_id, payload, epoch=self.epoch, owner=self.broker_id
                ):
                    return True
            except StaleFencingToken:
                # This broker was superseded on the unit; the stale
                # write was rejected before touching shared state.
                self._refence()
                self._record_event("fenced", unit=unit_id, op="commit")
                adopted = self.store.read_commit(unit_id)
                if adopted is not None:
                    self._adopt_commit(record, lease, adopted)
                else:
                    self._clear_own_lease(unit_id)
                    self._requeue_record(record, "fenced during commit")
                self._update_gauges()
                return False
            adopted = self.store.read_commit(unit_id)
            if adopted is not None:
                self._adopt_commit(record, lease, adopted)
                self._update_gauges()
                return False
        self._clear_own_lease(unit_id)
        self._requeue_record(record, "commit kept failing verification")
        self._update_gauges()
        return False

    def fail(
        self, lease: Lease, error: str, requeue: bool = False
    ) -> None:
        """Settle (or re-queue) a unit whose attempt failed."""
        record = self._require_unit(lease.unit_id)
        if record.status in (DONE, CANCELLED):
            return
        self.telemetry.count("scheduler.unit_failures")
        self._clear_own_lease(lease.unit_id)
        if requeue:
            self._set_status(record, PENDING)
            record.worker = None
            record.deadline = None
            self._push(record)
            self.telemetry.count("scheduler.requeued")
            self._record_event(
                "requeue", unit=lease.unit_id, error=str(error)
            )
        else:
            self._set_status(record, FAILED)
            record.error = str(error)
            self._record_event("fail", unit=lease.unit_id, error=str(error))
        self._update_gauges()

    def cancel(self, submission_id: str) -> int:
        """Cancel a submission; returns how many pending units it drops.

        Leased units finish their in-flight attempt (a lease cannot be
        revoked from under a worker), but the submission is marked so
        its results are never assembled.
        """
        submission = self._submissions.get(submission_id)
        if submission is None:
            raise SchedulerError(
                f"unknown submission {submission_id!r}; "
                f"known: {sorted(self._submissions)}"
            )
        submission.cancelled = True
        dropped = 0
        for record in self._sub_records[submission_id]:
            if record.status == PENDING:
                self._set_status(record, CANCELLED)
                dropped += 1
        self.telemetry.count("scheduler.cancelled", n=dropped)
        self._record_event(
            "cancel", submission=submission_id, dropped=dropped
        )
        self._update_gauges()
        return dropped

    def _clear_own_lease(self, unit_id: str) -> None:
        if self.store is None:
            return
        lease = self.store.read_lease(unit_id)
        if lease is not None and lease.get("owner") == self.broker_id:
            self.store.clear_lease(unit_id)

    def _require_unit(self, unit_id: str) -> _UnitRecord:
        record = self._units.get(unit_id)
        if record is None:
            raise LeaseError(f"unknown unit {unit_id!r}")
        return record

    # -- inspection --------------------------------------------------------------

    def submission(self, submission_id: str) -> Submission:
        if submission_id not in self._submissions:
            raise SchedulerError(f"unknown submission {submission_id!r}")
        return self._submissions[submission_id]

    def submissions(self) -> List[Submission]:
        return sorted(
            self._submissions.values(), key=lambda s: s.sub_seq
        )

    def unit_status(self, unit_id: str) -> str:
        return self._require_unit(unit_id).status

    def unit_payload(self, unit_id: str) -> Optional[dict]:
        return self._require_unit(unit_id).payload

    def is_settled(self, submission_id: str) -> bool:
        """True when no unit of the submission can still change state."""
        counts = self._unit_counts(submission_id)
        return not counts.get(PENDING) and not counts.get(LEASED)

    def is_complete(self, submission_id: str) -> bool:
        """True when every unit of the submission completed."""
        done = self._unit_counts(submission_id).get(DONE, 0)
        return done > 0 and done == len(self._sub_records[submission_id])

    def entries_for(self, submission_id: str) -> List[dict]:
        """Committed payload dicts of a submission, in plan order."""
        self.submission(submission_id)  # raise on unknown ids
        records = self._sub_records[submission_id]
        return [
            r.payload
            for r in sorted(records, key=lambda r: r.planned.seq)
            if r.payload is not None
        ]

    def _unit_counts(self, submission_id: str) -> Dict[str, int]:
        """One submission's ``{state: units}``, empty states left out."""
        self.submission(submission_id)  # raise on unknown ids
        counts = self._sub_counts[submission_id]
        return {state: n for state, n in counts.items() if n}

    def status(self) -> dict:
        """JSON-shaped scheduler state (the ``status.json`` payload)."""
        subs = [
            submission.to_dict(self._unit_counts(submission.submission_id))
            for submission in self.submissions()
        ]
        return {
            "schema": 1,
            "broker": self.broker_id,
            "capacity": self.capacity,
            "epoch": self.epoch,
            "queued_units": self.pending_count(),
            "inflight_units": self._inflight_units,
            "submissions": subs,
            "store": (
                self.store.health() if self.store is not None else None
            ),
        }

    # -- the settle path (run, explore, the broker pairings) ---------------------

    def settle(
        self,
        leases: Sequence[Lease],
        executor,
        encode: Callable,
        on_settled: Optional[Callable] = None,
        telemetry=None,
    ) -> None:
        """Run one leased batch through a supervised executor; settle it.

        As each unit reports, in submission order, an ok unit is
        completed with ``encode(lease, report, result)`` as its payload
        and a quarantined one is failed; ``on_settled(lease, report,
        payload)`` then runs (``payload`` is None for a failed unit).
        Settling comes first, so a callback that raises (a checkpoint
        crash, SIGTERM) still leaves every reported unit settled.  The
        live result is dropped once it is encoded.
        """

        def _settle(index: int, report, result) -> None:
            lease = leases[index]
            payload = None
            if report.ok:
                payload = encode(lease, report, result)
                self.complete(lease, payload)
            else:
                self.fail(lease, report.error or "quarantined")
            if on_settled is not None:
                on_settled(lease, report, payload)

        executor.map([lease.unit for lease in leases], _settle, telemetry)

    def drain(
        self,
        executor,
        encode: Callable,
        on_settled: Optional[Callable] = None,
        telemetry=None,
    ) -> None:
        """Lease everything pending and :meth:`settle` it until none is.

        A unit re-queued while settling (fenced, or a commit that kept
        failing verification) is leased again on the next round.

        Scheduling is span-free on purpose: the only span a drain opens
        around its units is the executor's own ``supervisor.map``.
        """
        while True:
            leases = self.lease("in-process", limit=None)
            if not leases:
                return
            self.settle(leases, executor, encode, on_settled, telemetry)
