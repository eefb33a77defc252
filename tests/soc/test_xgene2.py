"""Whole-chip assembly."""

import pytest

from repro.errors import ConfigurationError
from repro.soc.dvfs import TABLE3_OPERATING_POINTS
from repro.soc.geometry import CacheLevel
from repro.soc.xgene2 import XGene2


class TestAssembly:
    def test_array_count_matches_inventory(self, chip):
        assert len(list(chip.arrays())) == 45  # 16 L1 + 24 TLB + 4 L2 + 1 L3

    def test_sram_capacity(self, chip):
        mib = chip.sram_data_bits / 8 / 1024 / 1024
        assert 9.5 < mib < 10.0
        stored = sum(a.stored_bits for a in chip.arrays())
        assert stored > chip.sram_data_bits

    def test_array_lookup(self, chip):
        l3 = chip.array("soc.l3")
        assert l3.domain == "soc"
        assert chip.spec("soc.l3").level == CacheLevel.L3
        with pytest.raises(ConfigurationError):
            chip.array("nope")
        with pytest.raises(ConfigurationError):
            chip.spec("nope")

    def test_arrays_by_level(self, chip):
        assert len(chip.arrays_by_level(CacheLevel.L1)) == 16
        assert len(chip.arrays_by_level(CacheLevel.L3)) == 1

    def test_duplicate_structures_rejected(self):
        from repro.soc.geometry import xgene2_structures

        specs = xgene2_structures()
        with pytest.raises(ConfigurationError):
            XGene2(structures=specs + [specs[0]])


class TestElectricalState:
    def test_operating_point_roundtrip(self, chip):
        for point in TABLE3_OPERATING_POINTS:
            chip.apply_operating_point(point)
            snap = chip.operating_point()
            assert (snap.freq_mhz, snap.pmd_mv, snap.soc_mv) == (
                point.freq_mhz, point.pmd_mv, point.soc_mv,
            )

    def test_domain_voltage_lookup(self, chip):
        chip.apply_operating_point(TABLE3_OPERATING_POINTS[3])
        assert chip.domain_voltage_mv("pmd") == 790
        assert chip.domain_voltage_mv("soc") == 950


class TestPowerCycle:
    def test_power_cycle_clears_sram_and_logs(self, chip):
        chip.array("soc.l3").inject_bit_flip(0, 0)
        chip.array("soc.l3").inject_bit_flip(1, 1)
        _, record = chip.array("soc.l3").access(0)
        chip.edac.log_upset(1.0, record, CacheLevel.L3)
        assert len(chip.edac) == 1
        chip.power_cycle()
        assert len(chip.edac) == 0
        assert list(chip.array("soc.l3").scrub()) == []

    def test_power_cycle_preserves_operating_point(self, chip):
        chip.apply_operating_point(TABLE3_OPERATING_POINTS[2])
        chip.power_cycle()
        assert chip.operating_point().pmd_mv == 920

    def test_repr_mentions_cores(self, chip):
        assert "8 cores" in repr(chip)
