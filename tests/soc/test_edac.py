"""EDAC log: records, counting, dmesg round-trip."""

import pytest

from repro.errors import AnalysisError
from repro.soc.edac import (
    EdacLog,
    EdacRecord,
    EdacSeverity,
    parse_dmesg_line,
)
from repro.soc.geometry import CacheLevel
from repro.sram.array import UpsetRecord
from repro.sram.protection import DecodeStatus


def make_record(t=1.0, level=CacheLevel.L2, sev=EdacSeverity.CE, bits=1):
    return EdacRecord(
        time_s=t, array="pair0.l2", level=level, severity=sev, bits=bits
    )


class TestDmesgRoundtrip:
    def test_single_line(self):
        record = make_record(t=12.5)
        parsed = parse_dmesg_line(record.to_dmesg())
        assert parsed == record

    def test_whole_log(self):
        log = EdacLog()
        log.log(make_record(1.0))
        log.log(make_record(2.0, level=CacheLevel.L3, sev=EdacSeverity.UE, bits=2))
        log.log(make_record(3.0, level=CacheLevel.TLB))
        rebuilt = EdacLog.from_dmesg(log.to_dmesg())
        assert rebuilt.records == log.records

    def test_unparseable_line_rejected(self):
        with pytest.raises(AnalysisError):
            parse_dmesg_line("kernel: something unrelated")

    def test_unknown_level_rejected(self):
        with pytest.raises(AnalysisError):
            parse_dmesg_line(
                "[    1.000000] EDAC CE: 1-bit error on x (L9 Cache)"
            )


class TestLogUpset:
    def test_corrected_upset_becomes_ce(self):
        log = EdacLog()
        upset = UpsetRecord(
            array="pair0.l2", word=1, flipped_bits=1,
            status=DecodeStatus.CORRECTED,
        )
        record = log.log_upset(5.0, upset, CacheLevel.L2)
        assert record.severity == EdacSeverity.CE

    def test_secded_uncorrectable_becomes_ue(self):
        log = EdacLog()
        upset = UpsetRecord(
            array="soc.l3", word=1, flipped_bits=2,
            status=DecodeStatus.DETECTED_UNCORRECTABLE,
        )
        record = log.log_upset(5.0, upset, CacheLevel.L3)
        assert record.severity == EdacSeverity.UE

    def test_parity_detection_reported_as_ce(self):
        # Parity arrays invalidate + refetch: from the system's view the
        # error was corrected (Section 3.1).
        log = EdacLog()
        upset = UpsetRecord(
            array="core0.l1d", word=1, flipped_bits=1,
            status=DecodeStatus.DETECTED_UNCORRECTABLE,
        )
        record = log.log_upset(5.0, upset, CacheLevel.L1)
        assert record.severity == EdacSeverity.CE

    def test_silent_and_clean_produce_no_record(self):
        log = EdacLog()
        for status in (DecodeStatus.SILENT, DecodeStatus.CLEAN):
            upset = UpsetRecord(
                array="soc.l3", word=1, flipped_bits=3, status=status
            )
            assert log.log_upset(5.0, upset, CacheLevel.L3) is None
        assert len(log) == 0


class TestAggregation:
    def test_count_filters(self):
        log = EdacLog()
        log.log(make_record(1.0, level=CacheLevel.L2, sev=EdacSeverity.CE))
        log.log(make_record(2.0, level=CacheLevel.L3, sev=EdacSeverity.CE))
        log.log(make_record(3.0, level=CacheLevel.L3, sev=EdacSeverity.UE))
        assert log.count() == 3
        assert log.count(level=CacheLevel.L3) == 2
        assert log.count(severity=EdacSeverity.UE) == 1
        assert log.count(level=CacheLevel.L3, severity=EdacSeverity.CE) == 1

    def test_merged_sorts_by_time(self):
        a = EdacLog()
        a.log(make_record(3.0))
        b = EdacLog()
        b.log(make_record(1.0))
        merged = a.merged([b])
        assert [r.time_s for r in merged.records] == [1.0, 3.0]

    def test_clear(self):
        log = EdacLog()
        log.log(make_record())
        log.clear()
        assert len(log) == 0
