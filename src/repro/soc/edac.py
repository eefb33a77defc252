"""EDAC (Error Detection And Correction) reporting layer.

The paper observes SRAM upsets exclusively through the Linux EDAC driver
(Section 4.2): the hardware's parity/SECDED machinery raises corrected
(CE) or uncorrected (UE) error notifications, which the kernel forwards
into the dmesg log.  This module provides the equivalent event sink:
structured records, per-level counting, and a dmesg-style text encoding
with a parser (round-trip tested), so the analysis layer consumes the
same artifact the authors scraped off their serial console.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..errors import AnalysisError
from ..sram.array import UpsetRecord
from ..sram.protection import DecodeStatus
from .geometry import CacheLevel


class EdacSeverity(enum.Enum):
    """The two EDAC notification classes."""

    #: Corrected error: parity-invalidate+refetch or SECDED single-bit fix.
    CE = "CE"
    #: Uncorrected error: SECDED double-bit detection.
    UE = "UE"


@dataclass(frozen=True)
class EdacRecord:
    """One EDAC notification.

    Attributes
    ----------
    time_s:
        Seconds since session start (the dmesg timestamp).
    array:
        Physical array instance, e.g. ``"pair2.l2"``.
    level:
        Reporting level (TLB / L1 / L2 / L3).
    severity:
        CE or UE.
    bits:
        Number of stored bits that were flipped in the affected word.
    """

    time_s: float
    array: str
    level: CacheLevel
    severity: EdacSeverity
    bits: int

    def to_dmesg(self) -> str:
        """Render the record as a dmesg-style line."""
        return (
            f"[{self.time_s:12.6f}] EDAC {self.severity.value}: "
            f"{self.bits}-bit error on {self.array} ({self.level.value})"
        )


_DMESG_RE = re.compile(
    r"^\[\s*(?P<time>[0-9.]+)\] EDAC (?P<sev>CE|UE): "
    r"(?P<bits>\d+)-bit error on (?P<array>\S+) \((?P<level>[^)]+)\)$"
)


def parse_dmesg_line(line: str) -> EdacRecord:
    """Parse one dmesg-style line back into an :class:`EdacRecord`."""
    match = _DMESG_RE.match(line.strip())
    if match is None:
        raise AnalysisError(f"unparseable EDAC line: {line!r}")
    level = next(
        (lvl for lvl in CacheLevel if lvl.value == match.group("level")), None
    )
    if level is None:
        raise AnalysisError(f"unknown cache level in line: {line!r}")
    return EdacRecord(
        time_s=float(match.group("time")),
        array=match.group("array"),
        level=level,
        severity=EdacSeverity(match.group("sev")),
        bits=int(match.group("bits")),
    )


class EdacLog:
    """Accumulates EDAC records for one test session."""

    def __init__(self) -> None:
        self._records: List[EdacRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self) -> List[EdacRecord]:
        """All records in arrival order."""
        return list(self._records)

    def log(self, record: EdacRecord) -> None:
        """Append one record."""
        self._records.append(record)

    def log_upset(
        self, time_s: float, upset: UpsetRecord, level: CacheLevel
    ) -> Optional[EdacRecord]:
        """Convert an array-level :class:`UpsetRecord` into an EDAC record.

        Detected-uncorrectable results from *parity* arrays are reported
        as CE: the entry is invalidated and transparently refetched, so
        from the system's viewpoint the error was corrected (Section
        3.1).  Silent outcomes produce no EDAC record at all -- that is
        precisely what makes them silent.
        """
        if upset.status == DecodeStatus.SILENT:
            return None
        if upset.status == DecodeStatus.CLEAN:
            return None
        if upset.status == DecodeStatus.DETECTED_UNCORRECTABLE and level in (
            CacheLevel.TLB,
            CacheLevel.L1,
        ):
            severity = EdacSeverity.CE
        elif upset.status == DecodeStatus.DETECTED_UNCORRECTABLE:
            severity = EdacSeverity.UE
        else:
            severity = EdacSeverity.CE
        record = EdacRecord(
            time_s=time_s,
            array=upset.array,
            level=level,
            severity=severity,
            bits=upset.flipped_bits,
        )
        self.log(record)
        return record

    # -- aggregation ---------------------------------------------------------

    def count(
        self,
        level: Optional[CacheLevel] = None,
        severity: Optional[EdacSeverity] = None,
    ) -> int:
        """Count records, optionally filtered by level and/or severity."""
        return sum(
            1
            for r in self._records
            if (level is None or r.level == level)
            and (severity is None or r.severity == severity)
        )

    def to_dmesg(self) -> str:
        """Render the whole log as dmesg text."""
        return "\n".join(r.to_dmesg() for r in self._records)

    @classmethod
    def from_dmesg(cls, text: str) -> "EdacLog":
        """Rebuild a log from dmesg text (ignores blank lines)."""
        log = cls()
        for line in text.splitlines():
            if line.strip():
                log.log(parse_dmesg_line(line))
        return log

    def merged(self, others: Iterable["EdacLog"]) -> "EdacLog":
        """Return a new log merging this one with *others*, time-sorted."""
        merged = EdacLog()
        records = list(self._records)
        for other in others:
            records.extend(other._records)
        for record in sorted(records, key=lambda r: r.time_s):
            merged.log(record)
        return merged

    def clear(self) -> None:
        """Drop all records (e.g. across a reboot)."""
        self._records.clear()
