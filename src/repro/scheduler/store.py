"""Shared-directory scheduler state: fenced, checksummed, self-healing.

Two broker processes (possibly on two hosts mounting one results
directory) coordinate through plain files.  The original contract --
commits are exclusive and atomic, leases are advisory -- assumed a
well-behaved POSIX filesystem.  Real campaign roots are network mounts
where three things go wrong, and this store survives each one:

* **A stale broker can win a link race.**  Every broker registers a
  monotonically increasing *fencing epoch* (:mod:`.fencing`) and stamps
  it on every lease and commit; a write whose epoch has been superseded
  on that unit is rejected with the typed
  :class:`~repro.errors.StaleFencingToken` before it touches shared
  state.  ``try_commit`` additionally verifies its own write *after*
  linking (a unique writer token in the record header), so an NFS
  "ghost success" -- the link reports victory while another writer's
  bytes survive -- is detected and demoted to an adoption.
* **A torn or bit-flipped commit file would be adopted as truth.**
  Commit records are self-describing (format version, payload sha256,
  byte length, fencing epoch, writer token); every read re-verifies the
  checksum.  A record that fails verification is moved to
  ``quarantine/`` next to a machine-readable reason file, the read
  reports "not committed" so the unit is re-planned, and
  ``scheduler.store.quarantined`` counts the event -- corruption
  becomes recoverable and observable instead of silent.
* **Transient I/O errors (EIO/ESTALE/EAGAIN) abort the drain.**  Every
  primitive (read/write/link/replace) runs inside a bounded,
  deterministic retry envelope (:mod:`.retry`); an exhausted budget
  degrades to the typed :class:`~repro.errors.StoreUnavailable`.

Leases remain advisory, but their *liveness* is now judged on the
observer's monotonic clock: a foreign lease counts as live while its
fingerprint (owner, refresh counter, deadline) keeps changing, and
expires once it has been observed unchanged for its TTL -- so an NTP
step on the shared root can neither mass-expire nor immortalize leases.
The wall-clock deadline persisted in the lease file is kept for human
inspection and as the first-sight hint only.

Correctness still never rests on leases -- only on the commit's
exclusivity plus the fencing epoch.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import ReproIOError, StaleFencingToken
from ..io.atomic import atomic_write_text
from ..telemetry import NULL_TELEMETRY
from .fencing import FencingRegistry
from .retry import RetryPolicy

#: Subdirectories of the scheduler state root.
COMMITS_DIR = "commits"
LEASES_DIR = "leases"
QUARANTINE_DIR = "quarantine"

#: Commit record format written (and required) by this store version.
#: Format 1 was a bare payload dict with no header; anything that is
#: not a verifiable format-2 record is quarantined on read.
COMMIT_FORMAT = 2


def _fs_name(unit_id: str) -> str:
    """A unit id as a safe filename (ids contain one '/')."""
    return unit_id.replace("/", "__")


def _unit_id(fs_name: str) -> str:
    return fs_name.replace("__", "/", 1)


class _CorruptCommit(Exception):
    """Internal: a commit record failed verification (reason + detail)."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


def encode_commit(
    payload: dict, epoch: Optional[int], writer: str
) -> bytes:
    """Serialize *payload* as a self-describing format-2 commit record.

    The checksum and length cover the payload's canonical re-encoding
    (insertion-order JSON, the same bytes assembly re-emits), so a
    verified record guarantees byte-identical adopted results.
    """
    body = json.dumps(payload).encode("utf-8")
    record = {
        "format": COMMIT_FORMAT,
        "sha256": hashlib.sha256(body).hexdigest(),
        "length": len(body),
        "epoch": epoch,
        "writer": writer,
        "payload": payload,
    }
    return json.dumps(record).encode("utf-8")


def decode_commit(raw: bytes) -> dict:
    """Parse and verify a commit record; raises :class:`_CorruptCommit`."""
    try:
        record = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _CorruptCommit("decode-error", str(exc)) from exc
    if not isinstance(record, dict) or record.get("format") != COMMIT_FORMAT:
        raise _CorruptCommit(
            "bad-format",
            f"expected a format-{COMMIT_FORMAT} record, got "
            f"{record.get('format') if isinstance(record, dict) else type(record).__name__!r}",
        )
    body = json.dumps(record.get("payload")).encode("utf-8")
    if len(body) != record.get("length"):
        raise _CorruptCommit(
            "length-mismatch",
            f"payload re-encodes to {len(body)} byte(s), header says "
            f"{record.get('length')!r}",
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != record.get("sha256"):
        raise _CorruptCommit(
            "checksum-mismatch",
            f"payload sha256 {digest} != header {record.get('sha256')!r}",
        )
    return record


class DirectoryStore:
    """Lease/commit state shared by every broker on one directory.

    Parameters
    ----------
    root:
        The scheduler state directory (conventionally
        ``<service root>/scheduler``).  Created on first use.
    clock:
        Wall-clock source for the *advisory* timestamps persisted in
        lease files and quarantine reasons (``time.time``).  Foreign-lease
        liveness is judged by observation on ``time.monotonic``, or on
        the injected ``clock`` when one was given (so fake-clock tests
        drive both).
    telemetry:
        Metrics sink for the ``scheduler.store.*`` counters.
    retry:
        The transient-I/O retry budget (:class:`~.retry.RetryPolicy`).
    sleep:
        Backoff sleeper, injectable so chaos tests run at full speed.
    """

    def __init__(
        self,
        root: str,
        clock: Optional[Callable[[], float]] = None,
        telemetry=None,
        retry: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.root = root
        self.clock = clock or time.time
        self.mono_clock = clock or time.monotonic
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep or time.sleep
        self._commits = os.path.join(root, COMMITS_DIR)
        self._leases = os.path.join(root, LEASES_DIR)
        self._quarantine = os.path.join(root, QUARANTINE_DIR)
        os.makedirs(self._commits, exist_ok=True)
        os.makedirs(self._leases, exist_ok=True)
        os.makedirs(self._quarantine, exist_ok=True)
        self.fencing = FencingRegistry(root, clock=self.clock)
        #: In-process observability (also mirrored to telemetry).
        self.counters: Dict[str, int] = {
            "commits": 0,
            "retries": 0,
            "quarantined": 0,
            "fenced": 0,
        }
        self._writer_seq = 0
        self._lease_seq: Dict[str, int] = {}
        #: unit_id -> (lease fingerprint, first-seen monotonic time).
        self._observations: Dict[str, Tuple[tuple, float]] = {}

    # -- raw I/O primitives (overridden by the chaos wrapper) --------------------

    def _write_bytes(self, path: str, data: bytes) -> None:
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def _read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    def _link(self, src: str, dst: str) -> None:
        os.link(src, dst)

    def _replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def _retry_op(self, op: str, fn):
        return self.retry.run(
            op, fn, sleep=self._sleep, on_retry=self._note_retry
        )

    def _note_retry(self, op: str) -> None:
        self.counters["retries"] += 1
        self.telemetry.count("scheduler.store.retries")

    # -- fencing -----------------------------------------------------------------

    def register_epoch(self, broker_id: str) -> int:
        """Issue this broker its fencing epoch (monotonic per root)."""
        return self.fencing.register(broker_id)

    def check_fence(
        self, unit_id: str, epoch: Optional[int], owner: Optional[str]
    ) -> None:
        """Reject a write stamped with a superseded epoch.

        A write is stale when the unit's current lease carries a higher
        epoch (another broker took the unit over), or when the writer's
        own identity has re-registered at a higher epoch (a newer
        incarnation of the same broker).  Unfenced writes
        (``epoch=None``, e.g. direct store use in tools) always pass --
        they fall back to plain link exclusivity.
        """
        if epoch is None:
            return
        lease = self.read_lease(unit_id)
        if lease is not None:
            holder_epoch = lease.get("epoch")
            if isinstance(holder_epoch, int) and holder_epoch > epoch:
                self._note_fenced()
                raise StaleFencingToken(
                    f"write to unit {unit_id!r} carries epoch {epoch}, but "
                    f"the unit's lease is held at epoch {holder_epoch} by "
                    f"{lease.get('owner')!r}; re-register for a fresh epoch"
                )
        if owner is not None:
            latest = self.fencing.latest_for(owner)
            if latest is not None and latest > epoch:
                self._note_fenced()
                raise StaleFencingToken(
                    f"broker {owner!r} writes with epoch {epoch} but has "
                    f"re-registered at epoch {latest}; this incarnation is "
                    f"superseded"
                )

    def _note_fenced(self) -> None:
        self.counters["fenced"] += 1
        self.telemetry.count("scheduler.store.fenced")

    # -- commits (the exactly-once boundary) -------------------------------------

    def _commit_path(self, unit_id: str) -> str:
        return os.path.join(self._commits, f"{_fs_name(unit_id)}.json")

    def try_commit(
        self,
        unit_id: str,
        payload: dict,
        epoch: Optional[int] = None,
        owner: Optional[str] = None,
    ) -> bool:
        """Commit *payload* for *unit_id*; False if another writer won.

        The record is fully written and fsynced to a temp file first,
        then hard-linked into place, then *read back and verified*: the
        unique writer token proves this writer's bytes are the ones
        that survived.  A readback holding someone else's valid record
        is a lost race (ghost link success) and returns False; a
        readback that fails verification (our own write was torn, or
        the medium corrupted it) is quarantined and also returns False
        -- the name is free again, so the unit can be re-committed.

        Payload keys keep their insertion order (no ``sort_keys``):
        results assembled from *adopted* or resumed commit payloads
        must re-encode to the same bytes an uninterrupted run writes.

        Raises :class:`~repro.errors.StaleFencingToken` when *epoch*
        has been superseded for this unit or owner.
        """
        self.check_fence(unit_id, epoch, owner)
        self._writer_seq += 1
        writer = f"{owner or 'anon'}:{os.getpid()}:{self._writer_seq}"
        data = encode_commit(payload, epoch, writer)
        final = self._commit_path(unit_id)
        tmp = f"{final}.tmp-{os.getpid()}"
        self._retry_op("write_commit", lambda: self._write_bytes(tmp, data))
        try:
            self._retry_op("link_commit", lambda: self._link(tmp, final))
        except FileExistsError:
            return False
        finally:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
        won = self._verify_own_write(unit_id, final, writer)
        if won:
            self.counters["commits"] += 1
            self.telemetry.count("scheduler.store.commits")
        return won

    def _verify_own_write(
        self, unit_id: str, final: str, writer: str
    ) -> bool:
        """Read back a just-linked commit and confirm our bytes survived."""
        raw: Optional[bytes] = None
        delays = list(self.retry.delays()) + [None]
        for delay in delays:
            try:
                raw = self._retry_op(
                    "verify_commit", lambda: self._read_bytes(final)
                )
                break
            except FileNotFoundError:
                # Our own link succeeded but the name is not visible yet
                # (stale read cache).  Within the budget, wait it out;
                # past it, trust the link -- os.link reported success
                # and a later reader will see (and verify) the record.
                if delay is None:
                    return True
                self._note_retry("verify_commit")
                self._sleep(delay)
        try:
            record = decode_commit(raw if raw is not None else b"")
        except _CorruptCommit as exc:
            self.quarantine_commit(unit_id, exc.reason, exc.detail)
            return False
        return record.get("writer") == writer

    def read_commit(self, unit_id: str) -> Optional[dict]:
        """The verified committed payload for *unit_id*, or None.

        A record that fails verification is quarantined (with a
        machine-readable reason file) and reported as absent, so the
        caller re-plans the unit instead of adopting corruption.
        """
        record = self.read_commit_record(unit_id)
        return None if record is None else record["payload"]

    def read_commit_record(self, unit_id: str) -> Optional[dict]:
        """The full verified commit record (header + payload), or None."""
        try:
            raw = self._retry_op(
                "read_commit",
                lambda: self._read_bytes(self._commit_path(unit_id)),
            )
        except FileNotFoundError:
            return None
        try:
            return decode_commit(raw)
        except _CorruptCommit as exc:
            self.quarantine_commit(unit_id, exc.reason, exc.detail)
            return None

    def committed_units(self) -> Set[str]:
        """Ids of every committed unit in the directory."""
        return {
            _unit_id(name[: -len(".json")])
            for name in os.listdir(self._commits)
            if name.endswith(".json")
        }

    def check_config(self, config_hash: str) -> None:
        """Refuse commits that another configuration's plan wrote.

        Unit ids are ``<hash12>/<label>``, so a commit whose id starts
        with another hash12 belongs to a different configuration, and
        resuming beside it would mix two plans' results in one store.
        Raises :class:`~repro.errors.ReproIOError` naming both hashes.
        """
        own = config_hash[:12]
        foreign = sorted(
            {unit_id.split("/", 1)[0] for unit_id in self.committed_units()}
            - {own}
        )
        if foreign:
            raise ReproIOError(
                f"commits under {self.root!r} belong to a different "
                f"configuration (hash {', '.join(foreign)}, not {own}); "
                f"resume with that configuration, or pass --fresh to "
                f"discard them"
            )

    # -- quarantine --------------------------------------------------------------

    def quarantine_commit(
        self, unit_id: str, reason: str, detail: str = ""
    ) -> Optional[str]:
        """Move a unit's corrupt commit record into ``quarantine/``.

        The record lands next to ``<name>.reason.json`` naming the
        verification failure; the commit name is freed so the re-planned
        unit can commit again.  Deliberately uses direct I/O (no retry
        envelope, no chaos hooks): the recovery path must not itself be
        a fault-injection target.  Returns the quarantined record path,
        or None when the record vanished first (racing quarantines).
        """
        base = os.path.join(self._quarantine, _fs_name(unit_id))
        dest = f"{base}.json"
        n = 0
        while os.path.exists(dest):
            n += 1
            dest = f"{base}.{n}.json"
        moved: Optional[str] = dest
        try:
            os.replace(self._commit_path(unit_id), dest)
        except FileNotFoundError:
            moved = None
        reason_record = {
            "schema": 1,
            "unit_id": unit_id,
            "reason": reason,
            "detail": detail,
            "record": os.path.basename(dest) if moved else None,
            "quarantined_unix": self.clock(),
        }
        reason_path = f"{dest[: -len('.json')]}.reason.json"
        atomic_write_text(
            reason_path, json.dumps(reason_record, sort_keys=True)
        )
        self.counters["quarantined"] += 1
        self.telemetry.count("scheduler.store.quarantined")
        return moved

    def quarantined_units(self) -> List[dict]:
        """Parsed reason records of everything in ``quarantine/``."""
        reasons = []
        for name in sorted(os.listdir(self._quarantine)):
            if not name.endswith(".reason.json"):
                continue
            try:
                with open(os.path.join(self._quarantine, name)) as handle:
                    record = json.load(handle)
            except (json.JSONDecodeError, OSError):
                continue
            if isinstance(record, dict):
                reasons.append(record)
        return reasons

    def requeue_quarantined(self) -> List[dict]:
        """Drop every quarantine record so the units replan cleanly.

        The commit names were already freed at quarantine time, so
        "requeue" only has to clear the evidence: the reason files and
        the preserved corrupt records.  Returns the reason records that
        were cleared (the operator's receipt of what got requeued).
        Direct I/O like :meth:`quarantine_commit` -- the recovery path
        is never a fault-injection target.
        """
        requeued = self.quarantined_units()
        for record in requeued:
            preserved = record.get("record")
            if preserved:
                try:
                    os.remove(os.path.join(self._quarantine, preserved))
                except FileNotFoundError:
                    pass
        for name in os.listdir(self._quarantine):
            if name.endswith(".reason.json"):
                try:
                    os.remove(os.path.join(self._quarantine, name))
                except FileNotFoundError:
                    pass
        return requeued

    # -- leases (advisory) -------------------------------------------------------

    def _lease_path(self, unit_id: str) -> str:
        return os.path.join(self._leases, f"{_fs_name(unit_id)}.json")

    def write_lease(
        self,
        unit_id: str,
        owner: str,
        ttl_s: float,
        epoch: Optional[int] = None,
    ) -> None:
        """Publish (or refresh) this owner's lease on a unit.

        Atomic replace: other brokers read either the old lease or the
        new one, never a torn file.  ``refresh_seq`` increments on
        every write so observers can tell a refreshed lease from a
        frozen one without trusting wall clocks; ``deadline_unix`` is
        advisory (human inspection and first-sight hint only).

        Raises :class:`~repro.errors.StaleFencingToken` when *epoch*
        has been superseded for this unit or owner.
        """
        self.check_fence(unit_id, epoch, owner)
        path = self._lease_path(unit_id)
        tmp = f"{path}.tmp-{os.getpid()}"
        seq = self._lease_seq.get(unit_id, 0) + 1
        self._lease_seq[unit_id] = seq
        record = {
            "unit_id": unit_id,
            "owner": owner,
            "epoch": epoch,
            "refresh_seq": seq,
            "ttl_s": float(ttl_s),
            "deadline_unix": self.clock() + ttl_s,
        }
        data = (json.dumps(record, sort_keys=True)).encode("utf-8")
        self._retry_op("write_lease", lambda: self._write_bytes(tmp, data))
        self._retry_op("replace_lease", lambda: self._replace(tmp, path))

    def read_lease(self, unit_id: str) -> Optional[dict]:
        """The published lease for a unit, or None (torn reads -> None)."""
        try:
            raw = self._retry_op(
                "read_lease",
                lambda: self._read_bytes(self._lease_path(unit_id)),
            )
        except (FileNotFoundError, OSError):
            # A lease is advisory; an unreadable one (including a
            # retry-exhausted transient storm) is treated as absent
            # rather than wedging the scheduler.
            return None
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def clear_lease(self, unit_id: str) -> None:
        """Remove a unit's lease file (idempotent)."""
        try:
            os.unlink(self._lease_path(unit_id))
        except FileNotFoundError:
            pass

    def foreign_lease_live(
        self, unit_id: str, owner: str, now: Optional[float] = None
    ) -> bool:
        """True when *another* owner holds a live lease on the unit.

        Liveness is observation-based on *this* process's monotonic
        clock: a foreign lease seen for the first time (or with a
        changed fingerprint -- the owner refreshed it) is judged by the
        advisory wall-clock deadline; one observed *unchanged* is live
        only until it has sat frozen for its TTL on our monotonic
        clock.  A live owner keeps bumping ``refresh_seq``, so its
        lease never freezes; a dead owner's lease expires after one TTL
        of observed silence regardless of what wall clocks claim --
        NTP steps can neither mass-expire nor immortalize leases we
        are already watching.
        """
        lease = self.read_lease(unit_id)
        if lease is None or lease.get("owner") == owner:
            self._observations.pop(unit_id, None)
            return False
        deadline = lease.get("deadline_unix")
        wall_now = now if now is not None else self.clock()
        wall_live = isinstance(deadline, (int, float)) and wall_now < deadline
        fingerprint = (
            lease.get("owner"),
            lease.get("refresh_seq"),
            deadline,
        )
        mono_now = self.mono_clock()
        seen = self._observations.get(unit_id)
        if seen is None or seen[0] != fingerprint:
            self._observations[unit_id] = (fingerprint, mono_now)
            return wall_live
        ttl = lease.get("ttl_s")
        if not isinstance(ttl, (int, float)) or ttl <= 0:
            return wall_live
        return (mono_now - seen[1]) < ttl

    # -- observability -----------------------------------------------------------

    def health(self) -> dict:
        """Store health for ``status.json``: epochs, quarantine, budgets."""
        return {
            "epochs": self.fencing.epochs(),
            "quarantined": len(self.quarantined_units()),
            "commits": self.counters["commits"],
            "retries": self.counters["retries"],
            "fenced": self.counters["fenced"],
        }
