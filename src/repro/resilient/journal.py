"""The checkpoint journal: append-only JSONL of completed work units.

One line per record, written in completion (== submission) order:

.. code-block:: text

    {"kind": "header", "schema": 1, "config_hash": "...", "seed": ...,
     "time_scale": ..., "units": ["session1", ...]}
    {"kind": "unit", "key": "session1", "attempts": 1, "sram_bits": ...,
     "metrics": {...} | null, "session": {...}}

The first four design rules below belong to :class:`AppendLog`, the
one append-only JSONL file under both this checkpoint journal and the
broker's :class:`EventJournal`.  In decreasing order of importance:

* **Append-only.**  A unit line is written exactly once, after the unit
  completed; nothing is ever rewritten in place, so a crash can only
  tear the *last* line.
* **Fsync per unit** (default policy ``"unit"``): once ``append_unit``
  returns, that unit survives power loss, not just process death.
* **Torn tails are salvage, torn middles are corruption.**  On load, a
  final line that does not parse is dropped (the crash interrupted that
  append); a non-final line that does not parse means someone edited
  the file and :class:`~repro.errors.ReproIOError` is raised.
* **Reopen truncates what load salvaged.**  :meth:`CampaignJournal.load`
  reports the byte offset of the end of the last valid line and
  :meth:`CampaignJournal.reopen` truncates the file to it, so the torn
  fragment is physically removed before the resumed run appends -- the
  journal stays parseable even if the resumed run is interrupted again.
* **Resume is config-checked.**  The header pins the campaign's stable
  config hash; resuming under a different seed/time-scale/plan set
  raises instead of silently merging incompatible results.

The payload of a unit line is the *encoded* session dict (the exact
object that later lands in ``campaign.json``), so a resumed run can
reproduce the uninterrupted run's ``campaign.json`` byte-for-byte
without a decode/re-encode round trip through floating point.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ReproIOError, SupervisionError

JOURNAL_SCHEMA = 1

#: Fsync policies: "unit" fsyncs after every appended line (crash-safe
#: to power loss), "never" only flushes to the OS (crash-safe to
#: process death; used by speed-sensitive tests).
FSYNC_POLICIES = ("unit", "never")


@dataclass(frozen=True)
class JournalHeader:
    """First line of every journal: what campaign this checkpoints."""

    config_hash: str
    seed: int
    time_scale: float
    units: Tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "kind": "header",
            "schema": JOURNAL_SCHEMA,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "time_scale": self.time_scale,
            "units": list(self.units),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JournalHeader":
        if data.get("schema") != JOURNAL_SCHEMA:
            raise ReproIOError(
                f"unsupported journal schema {data.get('schema')!r} "
                f"(expected {JOURNAL_SCHEMA})"
            )
        return cls(
            config_hash=data["config_hash"],
            seed=int(data["seed"]),
            time_scale=float(data["time_scale"]),
            units=tuple(data["units"]),
        )


@dataclass(frozen=True)
class JournalEntry:
    """One completed work unit, as checkpointed."""

    key: str
    attempts: int
    sram_bits: int
    session: dict
    metrics: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "kind": "unit",
            "key": self.key,
            "attempts": self.attempts,
            "sram_bits": self.sram_bits,
            "metrics": self.metrics,
            "session": self.session,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JournalEntry":
        return cls(
            key=data["key"],
            attempts=int(data["attempts"]),
            sram_bits=int(data["sram_bits"]),
            session=data["session"],
            metrics=data.get("metrics"),
        )


@dataclass(frozen=True)
class SalvagedLog:
    """What :meth:`AppendLog.read` read back.

    ``valid_end`` is the byte offset just past the last valid line --
    the offset a reopen truncates to so a torn tail is physically
    removed before the next append.
    """

    records: List[dict]
    salvaged: int
    valid_end: int


@dataclass(frozen=True)
class LoadedJournal:
    """What :meth:`CampaignJournal.load` read back.

    ``valid_end`` is the byte offset just past the last valid line --
    the offset :meth:`CampaignJournal.reopen` truncates to so a torn
    tail is physically removed before the resumed run appends.
    """

    header: JournalHeader
    entries: Dict[str, JournalEntry]
    salvaged: int
    valid_end: int


def read_journal_header(path: str) -> JournalHeader:
    """Read only a journal's header line (no entry decoding).

    The cheap integrity question -- "which campaign configuration wrote
    these results?" -- should not require parsing megabytes of unit
    payloads, so this reads exactly one line.
    """
    try:
        with open(path, "rb") as handle:
            first = handle.readline()
    except FileNotFoundError:
        raise ReproIOError(f"no journal at {path!r}") from None
    except OSError as exc:
        raise ReproIOError(f"cannot read journal {path!r}: {exc}") from exc
    try:
        record = json.loads(first)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ReproIOError(
            f"journal {path!r} has no parseable header line "
            f"(torn at creation?)"
        ) from exc
    if not isinstance(record, dict) or record.get("kind") != "header":
        raise ReproIOError(
            f"journal {path!r} does not start with a header record"
        )
    return JournalHeader.from_dict(record)


class AppendLog:
    """One append-only JSONL file: the durability rules of every journal.

    Opening either creates the file afresh (truncating a stale one) or
    appends after trimming a torn tail; each line is written whole,
    flushed, and fsynced per the fsync policy; :meth:`read` salvages a
    torn final line and refuses a torn middle one.  The journals built
    on it -- :class:`CampaignJournal` and :class:`EventJournal` -- add
    only their record vocabulary.
    """

    def __init__(self, path: str, fsync: str = "unit") -> None:
        if fsync not in FSYNC_POLICIES:
            raise SupervisionError(
                f"unknown fsync policy {fsync!r}; choose from {FSYNC_POLICIES}"
            )
        self.path = path
        self.fsync = fsync
        self._handle = None

    # -- writing -----------------------------------------------------------------

    def _open(self, truncate: bool, valid_end: Optional[int] = None) -> None:
        """Open for writing: afresh, or appending after the last valid line.

        *valid_end* is the byte offset past the last valid line, as
        reported by :meth:`read`; the file is truncated to it before
        appending so a torn tail is physically removed.  Appending
        straight after the fragment would glue the next record onto it
        (no newline between them), leaving a corrupt non-final line
        that the next reader refuses to salvage.  Without *valid_end*
        the final line is kept only if it parses, the same rule
        :meth:`read` applies to it.
        """
        if self._handle is not None:
            raise SupervisionError("journal already open")
        if truncate:
            self._handle = open(self.path, "w")
            return
        self._truncate_torn_tail(valid_end)
        self._handle = open(self.path, "a")

    def _truncate_torn_tail(self, valid_end: Optional[int]) -> None:
        try:
            with open(self.path, "r+b") as handle:
                size = handle.seek(0, os.SEEK_END)
                if valid_end is None:
                    handle.seek(0)
                    raw = handle.read()
                    valid_end = raw.rfind(b"\n") + 1
                    if valid_end < size and _parses(raw[valid_end:]):
                        valid_end = size
                if 0 <= valid_end < size:
                    handle.truncate(valid_end)
                # A crash can tear off exactly the terminating newline:
                # the last line still parses, so it is kept, but
                # appending right after it would glue the next record
                # onto the unterminated line, corrupting both.
                # Terminate it.
                if valid_end > 0:
                    handle.seek(valid_end - 1)
                    if handle.read(1) != b"\n":
                        handle.seek(valid_end)
                        handle.write(b"\n")
                handle.flush()
                if self.fsync == "unit":
                    os.fsync(handle.fileno())
        except FileNotFoundError:
            pass  # nothing to trim; append will create the file

    def _write_line(self, line: str) -> None:
        """Append one record line (flush + fsync per policy)."""
        if self._handle is None:
            raise SupervisionError("journal is not open for writing")
        self._handle.write(line + "\n")
        self._handle.flush()
        if self.fsync == "unit":
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reading -----------------------------------------------------------------

    @staticmethod
    def read(path: str) -> SalvagedLog:
        """Read a log back, dropping (and counting) a torn final line.

        A final line that does not parse is the signature of a crash
        mid-append and is salvaged; a non-final one means someone
        edited the file and :class:`~repro.errors.ReproIOError` is
        raised.  A missing file raises :class:`FileNotFoundError`.
        """
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            raise
        except OSError as exc:
            raise ReproIOError(f"cannot read journal {path!r}: {exc}") from exc

        lines = raw.splitlines()
        records: List[dict] = []
        salvaged = 0
        valid_end = 0
        pos = 0
        for index, line in enumerate(lines):
            # Offset past this line including its terminator (the
            # final line has none iff the file does not end with one;
            # splitlines treats \r\n as a single two-byte terminator).
            pos += len(line)
            if raw[pos:pos + 2] == b"\r\n":
                pos += 2
            elif pos < len(raw):
                pos += 1
            if not line.strip():
                valid_end = pos
                continue
            try:
                records.append(json.loads(line))
                valid_end = pos
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                if index == len(lines) - 1:
                    # Crash tore the tail append; the records before it
                    # are intact, the torn one is simply lost.
                    salvaged += 1
                    continue
                raise ReproIOError(
                    f"journal {path!r} is corrupt at line {index + 1} "
                    f"(not a torn tail -- refusing to salvage): {exc}"
                ) from exc
        return SalvagedLog(
            records=records, salvaged=salvaged, valid_end=valid_end
        )


def _parses(line: bytes) -> bool:
    try:
        json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return False
    return True


class CampaignJournal(AppendLog):
    """Writer/reader of one results directory's checkpoint journal.

    Use :meth:`create` for a fresh run (truncates any stale journal) or
    :meth:`load` + :meth:`reopen` for a resumed one.  Lines are
    insertion-order ``json.dumps`` of the header and unit records.
    """

    @classmethod
    def create(
        cls, path: str, header: JournalHeader, fsync: str = "unit"
    ) -> "CampaignJournal":
        """Start a fresh journal (truncating any previous one)."""
        journal = cls(path, fsync=fsync)
        journal._open(truncate=True)
        journal._write_line(json.dumps(header.to_dict()))
        return journal

    def reopen(self, valid_end: Optional[int] = None) -> "CampaignJournal":
        """Open an existing journal for appending (resume path).

        *valid_end* is :meth:`load`'s ``valid_end``; the torn tail past
        it is truncated away before appending (see :class:`AppendLog`).
        """
        self._open(truncate=False, valid_end=valid_end)
        return self

    def append_unit(self, entry: JournalEntry) -> None:
        """Checkpoint one completed unit (flush + fsync per policy)."""
        self._write_line(json.dumps(entry.to_dict()))

    @classmethod
    def load(cls, path: str) -> LoadedJournal:
        """Read a journal back as a :class:`LoadedJournal`.

        Salvage follows :meth:`AppendLog.read`; ``valid_end`` marks the
        byte offset past the last valid line, for :meth:`reopen` to
        truncate the salvaged tail away.
        """
        try:
            log = cls.read(path)
        except FileNotFoundError:
            raise ReproIOError(
                f"no journal at {path!r}; nothing to resume "
                f"(run without --resume first)"
            ) from None
        records = log.records
        if not records or records[0].get("kind") != "header":
            raise ReproIOError(
                f"journal {path!r} has no header line; it is not a "
                f"campaign journal (or was torn at creation) -- start a "
                f"fresh run"
            )
        header = JournalHeader.from_dict(records[0])
        entries: Dict[str, JournalEntry] = {}
        for record in records[1:]:
            if record.get("kind") != "unit":
                raise ReproIOError(
                    f"journal {path!r}: unexpected record kind "
                    f"{record.get('kind')!r}"
                )
            entry = JournalEntry.from_dict(record)
            entries[entry.key] = entry
        return LoadedJournal(
            header=header,
            entries=entries,
            salvaged=log.salvaged,
            valid_end=log.valid_end,
        )


class EventJournal(AppendLog):
    """Append-only JSONL of scheduler events (submit/lease/complete).

    The campaign broker persists its scheduling decisions through the
    same :class:`AppendLog` as the checkpoint journal, but the payload
    is a free-form event stream (one ``sort_keys`` JSON object per
    line) rather than the closed header/unit vocabulary.  Opening an
    existing journal -- a restarted broker reusing its id -- trims a
    torn tail before appending, and *header* is written only when the
    file is new.  Each broker process owns exactly one journal file
    (named by its broker id), so two brokers sharing a results
    directory never interleave writes within one file; reading the
    directory's full history means reading every broker's journal.
    """

    def __init__(
        self, path: str, header: Optional[dict] = None, fsync: str = "unit"
    ) -> None:
        super().__init__(path, fsync=fsync)
        existed = os.path.exists(path)
        self._open(truncate=False)
        if not existed and header is not None:
            self.append(dict(header, kind="header"))

    def append(self, event: dict) -> None:
        """Append one event line (flush + fsync per policy)."""
        self._write_line(json.dumps(event, sort_keys=True))
