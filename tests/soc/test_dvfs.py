"""DVFS controller and the Table 3 operating points."""

import pytest

from repro.errors import FrequencyError
from repro.soc.domains import make_pmd_domain, make_soc_domain
from repro.soc.dvfs import (
    DvfsController,
    OperatingPoint,
    TABLE3_OPERATING_POINTS,
)


@pytest.fixture
def dvfs():
    return DvfsController(make_pmd_domain(), make_soc_domain())


class TestFrequency:
    def test_defaults_to_max(self, dvfs):
        assert dvfs.uniform_frequency_mhz == 2400

    def test_grid_validation(self, dvfs):
        with pytest.raises(FrequencyError):
            dvfs.set_all_frequencies(1000)  # not on the 300 MHz grid
        with pytest.raises(FrequencyError):
            dvfs.set_all_frequencies(150)  # below minimum
        with pytest.raises(FrequencyError):
            dvfs.set_all_frequencies(2700)  # above maximum

    def test_full_range_reachable(self, dvfs):
        for mhz in range(300, 2401, 300):
            dvfs.set_all_frequencies(mhz)


class TestOperatingPoints:
    def test_table3_matches_paper(self):
        rows = [
            (p.label, p.freq_mhz, p.pmd_mv, p.soc_mv)
            for p in TABLE3_OPERATING_POINTS
        ]
        assert rows == [
            ("Nominal", 2400, 980, 950),
            ("Safe", 2400, 930, 925),
            ("Vmin", 2400, 920, 920),
            ("Vmin@900MHz", 900, 790, 950),
        ]

    def test_apply_and_snapshot_roundtrip(self, dvfs):
        for point in TABLE3_OPERATING_POINTS:
            dvfs.apply(point)
            snap = dvfs.current_point(point.label)
            assert (snap.freq_mhz, snap.pmd_mv, snap.soc_mv) == (
                point.freq_mhz,
                point.pmd_mv,
                point.soc_mv,
            )

    def test_domain_voltage_lookup(self, dvfs):
        dvfs.apply(TABLE3_OPERATING_POINTS[1])
        assert dvfs.domain_voltage_mv("pmd") == 930
        assert dvfs.domain_voltage_mv("soc") == 925
        with pytest.raises(FrequencyError):
            dvfs.domain_voltage_mv("standby2")

    def test_operating_point_str(self):
        text = str(TABLE3_OPERATING_POINTS[0])
        assert "980" in text and "2400" in text
