"""SLIMpro management facade."""

import pytest

from repro.soc.dvfs import TABLE3_OPERATING_POINTS
from repro.soc.edac import EdacRecord, EdacSeverity
from repro.soc.geometry import CacheLevel
from repro.soc.xgene2 import XGene2


@pytest.fixture
def slim(chip):
    return chip.slimpro


def make_record(t):
    return EdacRecord(
        time_s=t, array="pair0.l2", level=CacheLevel.L2,
        severity=EdacSeverity.CE, bits=1,
    )


class TestVoltageControl:
    def test_apply_and_read_operating_point(self, chip, slim):
        slim.apply_operating_point(TABLE3_OPERATING_POINTS[2])
        point = slim.operating_point()
        assert point.pmd_mv == 920
        assert point.soc_mv == 920


class TestHealthPolling:
    def test_poll_returns_only_fresh_records(self, chip, slim):
        chip.edac.log(make_record(1.0))
        assert len(slim.poll_health()) == 1
        assert slim.poll_health() == []
        chip.edac.log(make_record(2.0))
        fresh = slim.poll_health()
        assert [r.time_s for r in fresh] == [2.0]

    def test_reset_cursor_resurfaces_records(self, chip, slim):
        chip.edac.log(make_record(1.0))
        slim.poll_health()
        slim.reset_health_cursor()
        assert len(slim.poll_health()) == 1
