"""Property tests: the EDAC dmesg text format is a lossless codec."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.edac import EdacLog, EdacRecord, EdacSeverity, parse_dmesg_line
from repro.soc.geometry import CacheLevel

records = st.builds(
    EdacRecord,
    time_s=st.floats(
        min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False
    ).map(lambda t: round(t, 6)),  # dmesg prints 6 decimals
    array=st.sampled_from(
        ["soc.l3", "pair0.l2", "pair3.l2", "core0.l1d", "core7.itlb"]
    ),
    level=st.sampled_from(list(CacheLevel)),
    severity=st.sampled_from(list(EdacSeverity)),
    bits=st.integers(min_value=1, max_value=8),
)


class TestDmesgCodecProperties:
    @given(record=records)
    @settings(max_examples=100)
    def test_single_record_roundtrip(self, record):
        assert parse_dmesg_line(record.to_dmesg()) == record

    @given(record_list=st.lists(records, max_size=30))
    @settings(max_examples=50)
    def test_log_roundtrip(self, record_list):
        log = EdacLog()
        for record in record_list:
            log.log(record)
        rebuilt = EdacLog.from_dmesg(log.to_dmesg())
        assert rebuilt.records == log.records

    @given(record_list=st.lists(records, max_size=30))
    @settings(max_examples=50)
    def test_counts_preserved_across_roundtrip(self, record_list):
        log = EdacLog()
        for record in record_list:
            log.log(record)
        rebuilt = EdacLog.from_dmesg(log.to_dmesg())
        for level in CacheLevel:
            for severity in EdacSeverity:
                assert rebuilt.count(level, severity) == log.count(
                    level, severity
                )
