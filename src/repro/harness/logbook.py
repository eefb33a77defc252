"""Structured session timeline logging.

A timestamped log of run starts and completions, failures, resets and
power cycles, in the vocabulary of the paper's serial-console captures.
Nothing in the program writes one.  The module stays only as the
target ``perfbench/tracer.py`` wraps by name (``Logbook.record``),
until perfbench reads in-program timers instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional

from ..errors import LogbookError

#: The closed set of entry categories; they mirror the serial-console
#: vocabulary of the paper's session captures.
VALID_KINDS: FrozenSet[str] = frozenset(
    {
        "run",
        "ok",
        "sdc",
        "appcrash",
        "syscrash",
        "reset",
        "powercycle",
        "note",
    }
)


@dataclass(frozen=True)
class LogEntry:
    """One timestamped logbook line.

    Attributes
    ----------
    time_s:
        Seconds since session start.
    kind:
        Entry category; one of :data:`VALID_KINDS` ("run", "ok",
        "sdc", "appcrash", "syscrash", "reset", "powercycle", "note").
    message:
        Free-form detail.
    benchmark:
        Benchmark in flight, when applicable.
    """

    time_s: float
    kind: str
    message: str
    benchmark: Optional[str] = None

    def render(self) -> str:
        """Render the entry as a console line."""
        bench = f" [{self.benchmark}]" if self.benchmark else ""
        return f"{self.time_s:10.1f}s {self.kind.upper():>10}{bench}: {self.message}"


class Logbook:
    """Append-only session log."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def record(
        self,
        time_s: float,
        kind: str,
        message: str,
        benchmark: Optional[str] = None,
    ) -> LogEntry:
        """Append one entry and return it.

        Raises
        ------
        LogbookError
            If *kind* is outside the documented closed set -- a typo'd
            kind would otherwise silently vanish from every
            ``count``/``entries`` query that spells it correctly.
        """
        if kind not in VALID_KINDS:
            raise LogbookError(
                f"unknown logbook kind {kind!r}; "
                f"expected one of {sorted(VALID_KINDS)}"
            )
        entry = LogEntry(
            time_s=time_s, kind=kind, message=message, benchmark=benchmark
        )
        self._entries.append(entry)
        return entry

    def entries(self, kind: Optional[str] = None) -> List[LogEntry]:
        """All entries, optionally filtered by kind."""
        if kind is None:
            return list(self._entries)
        return [e for e in self._entries if e.kind == kind]

    def count(self, kind: str) -> int:
        """Number of entries of one kind."""
        return sum(1 for e in self._entries if e.kind == kind)

    def render(self) -> str:
        """Render the whole log as text."""
        return "\n".join(e.render() for e in self._entries)
