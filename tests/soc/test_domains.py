"""Voltage domains and their regulator constraints."""

import pytest

from repro.errors import VoltageError
from repro.soc.domains import (
    DomainName,
    VoltageDomain,
    make_pmd_domain,
    make_soc_domain,
    make_standby_domain,
)


class TestFactories:
    def test_pmd_nominal(self):
        pmd = make_pmd_domain()
        assert pmd.nominal_mv == 980
        assert pmd.voltage_mv == 980
        assert pmd.name == DomainName.PMD

    def test_soc_nominal(self):
        soc = make_soc_domain()
        assert soc.nominal_mv == 950
        assert soc.name == DomainName.SOC

    def test_standby(self):
        assert make_standby_domain().name == DomainName.STANDBY


class TestSetVoltage:
    def test_downscale_on_grid(self):
        pmd = make_pmd_domain()
        pmd.set_voltage(920)
        assert pmd.voltage_mv == 920
        assert pmd.undervolt_mv == 60
        assert pmd.undervolt_fraction == pytest.approx(60 / 980)

    def test_above_nominal_rejected(self):
        with pytest.raises(VoltageError):
            make_pmd_domain().set_voltage(985)

    def test_off_grid_rejected(self):
        with pytest.raises(VoltageError):
            make_pmd_domain().set_voltage(978)

    def test_below_floor_rejected(self):
        with pytest.raises(VoltageError):
            make_pmd_domain().set_voltage(300)

    def test_paper_settings_reachable(self):
        pmd = make_pmd_domain()
        soc = make_soc_domain()
        for mv in (980, 930, 920, 790):
            pmd.set_voltage(mv)
        for mv in (950, 925, 920):
            soc.set_voltage(mv)

    def test_failed_set_leaves_state_unchanged(self):
        pmd = make_pmd_domain()
        pmd.set_voltage(930)
        with pytest.raises(VoltageError):
            pmd.set_voltage(933)
        assert pmd.voltage_mv == 930


class TestConstruction:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(VoltageError):
            VoltageDomain(DomainName.PMD, nominal_mv=0)
        with pytest.raises(VoltageError):
            VoltageDomain(DomainName.PMD, nominal_mv=980, step_mv=0)
        with pytest.raises(VoltageError):
            VoltageDomain(DomainName.PMD, nominal_mv=980, floor_mv=990)
