"""The service's append-only scheduling journal.

:class:`AppendLog` is one append-only JSONL file.  Its rules, in
decreasing order of importance:

* **Append-only.**  A line is written exactly once and never rewritten
  in place, so a crash can only tear the *last* line.
* **Fsync per line.**  Once an append returns, that line survives power
  loss, not just process death.
* **Reopening trims a torn tail.**  A final line that does not parse is
  the fragment of an interrupted append; it is truncated away before
  the next append, which would otherwise glue its record onto the
  fragment and leave a corrupt non-final line.

:class:`EventJournal` is the one log built on it: the broker's
scheduling events under ``serve``.  ``run`` checkpoints through the
scheduler's :class:`~repro.scheduler.DirectoryStore` instead, like
``explore`` and ``serve``.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..errors import SupervisionError


class AppendLog:
    """One append-only JSONL file, opened for append and fsynced per line.

    Opening trims a torn tail; each line is written whole, flushed and
    fsynced.  :class:`EventJournal` adds only its record vocabulary.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._truncate_torn_tail()
        self._handle = open(path, "a")

    def _truncate_torn_tail(self) -> None:
        """Keep the final line only if it parses, and terminate it."""
        try:
            with open(self.path, "r+b") as handle:
                raw = handle.read()
                valid_end = raw.rfind(b"\n") + 1
                if valid_end < len(raw) and _parses(raw[valid_end:]):
                    valid_end = len(raw)
                if valid_end < len(raw):
                    handle.truncate(valid_end)
                # A crash can tear off exactly the terminating newline:
                # the last line still parses, so it is kept, but
                # appending right after it would glue the next record
                # onto the unterminated line, corrupting both.
                # Terminate it.
                if valid_end > 0 and raw[valid_end - 1 : valid_end] != b"\n":
                    handle.seek(valid_end)
                    handle.write(b"\n")
                handle.flush()
                os.fsync(handle.fileno())
        except FileNotFoundError:
            pass  # nothing to trim; append will create the file

    def _write_line(self, line: str) -> None:
        """Append one record line (flush + fsync)."""
        if self._handle is None:
            raise SupervisionError("journal is closed")
        self._handle.write(line + "\n")
        self._handle.flush()
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


def _parses(line: bytes) -> bool:
    try:
        json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return False
    return True


class CampaignJournal:
    """Tracer-only stub: nothing in the program creates one.

    ``perfbench/tracer.py`` still wraps ``CampaignJournal.append_unit``
    by name, and its contract test requires every target to resolve.
    The stub goes once perfbench reads in-program timers (ROADMAP
    item 3).
    """

    def append_unit(self, entry: dict) -> None:
        """Never called; kept as the tracer's target."""


class EventJournal(AppendLog):
    """Append-only JSONL of scheduler events (submit/lease/complete).

    The campaign broker persists its scheduling decisions as a
    free-form event stream (one ``sort_keys`` JSON object per line).
    Opening an existing journal -- a restarted broker reusing its id --
    trims a torn tail before appending, and *header* is written only
    when the file is new.  Each broker process owns exactly one journal
    file (named by its broker id), so two brokers sharing a results
    directory never interleave writes within one file; reading the
    directory's full history means reading every broker's journal.
    """

    def __init__(self, path: str, header: Optional[dict] = None) -> None:
        existed = os.path.exists(path)
        super().__init__(path)
        if not existed and header is not None:
            self.append(dict(header, kind="header"))

    def append(self, event: dict) -> None:
        """Append one event line (flush + fsync)."""
        self._write_line(json.dumps(event, sort_keys=True))
