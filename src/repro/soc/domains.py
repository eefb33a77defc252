"""Voltage domains of the X-Gene 2.

The chip exposes three independently regulated domains (Section 3.1 /
Figure 1): the Processor Module Domain (PMD -- the four dual-core pairs
and their L1/L2 arrays), the SoC domain (L3 cache and DRAM controllers),
and the standby domain.  The PMD regulator starts at 980 mV and the SoC
regulator at 950 mV, both stepping in 5 mV increments; voltages can only
be scaled *downwards* from nominal.
"""

from __future__ import annotations

import enum
from .. import constants
from ..errors import VoltageError


class DomainName(enum.Enum):
    """The three voltage domains of the chip."""

    PMD = "pmd"
    SOC = "soc"
    STANDBY = "standby"


class VoltageDomain:
    """One independently regulated supply-voltage domain.

    Parameters
    ----------
    name:
        Which domain this is.
    nominal_mv:
        Nominal (maximum) voltage of the domain in millivolts.
    step_mv:
        Regulator granularity (5 mV on the platform).
    floor_mv:
        Lowest voltage the regulator can produce.  The hardware allows
        going far below any *safe* voltage -- safety is established by
        characterization, not by the regulator.
    """

    def __init__(
        self,
        name: DomainName,
        nominal_mv: int,
        step_mv: int = constants.VOLTAGE_STEP_MV,
        floor_mv: int = 500,
    ) -> None:
        if nominal_mv <= 0 or step_mv <= 0:
            raise VoltageError("nominal voltage and step must be positive")
        if floor_mv > nominal_mv:
            raise VoltageError("floor cannot exceed nominal voltage")
        self.name = name
        self.nominal_mv = int(nominal_mv)
        self.step_mv = int(step_mv)
        self.floor_mv = int(floor_mv)
        self._voltage_mv = int(nominal_mv)

    @property
    def voltage_mv(self) -> int:
        """The currently programmed voltage in millivolts."""
        return self._voltage_mv

    @property
    def undervolt_mv(self) -> int:
        """How far below nominal the domain currently sits (mV)."""
        return self.nominal_mv - self._voltage_mv

    @property
    def undervolt_fraction(self) -> float:
        """Relative undervolt (V_nom - V)/V_nom."""
        return self.undervolt_mv / self.nominal_mv

    def set_voltage(self, millivolts: int) -> None:
        """Program the regulator to *millivolts*.

        Raises
        ------
        VoltageError
            If the request is above nominal, below the regulator floor,
            or not on the 5 mV grid.
        """
        mv = int(millivolts)
        if mv > self.nominal_mv:
            raise VoltageError(
                f"{self.name.value}: {mv} mV above nominal "
                f"{self.nominal_mv} mV (scaling is downwards only)"
            )
        if mv < self.floor_mv:
            raise VoltageError(
                f"{self.name.value}: {mv} mV below regulator floor "
                f"{self.floor_mv} mV"
            )
        if (self.nominal_mv - mv) % self.step_mv:
            raise VoltageError(
                f"{self.name.value}: {mv} mV not reachable with "
                f"{self.step_mv} mV steps from {self.nominal_mv} mV"
            )
        self._voltage_mv = mv

    def __repr__(self) -> str:
        return (
            f"VoltageDomain({self.name.value!r}, {self._voltage_mv} mV "
            f"of nominal {self.nominal_mv} mV)"
        )


def make_pmd_domain(
    nominal_mv: int = None, floor_mv: int = 500
) -> VoltageDomain:
    """The Processor Module Domain (980 mV nominal on the measured part).

    Technology-node chips pass their own nominal and regulator floor;
    the default arguments reproduce the paper's regulator exactly.
    """
    nominal = constants.PMD_NOMINAL_MV if nominal_mv is None else nominal_mv
    return VoltageDomain(DomainName.PMD, nominal, floor_mv=floor_mv)


def make_soc_domain(
    nominal_mv: int = None, floor_mv: int = 500
) -> VoltageDomain:
    """The SoC domain (950 mV nominal on the measured part)."""
    nominal = constants.SOC_NOMINAL_MV if nominal_mv is None else nominal_mv
    return VoltageDomain(DomainName.SOC, nominal, floor_mv=floor_mv)


def make_standby_domain(nominal_mv: int = 950) -> VoltageDomain:
    """The standby power domain (not scaled in the study)."""
    return VoltageDomain(DomainName.STANDBY, nominal_mv)
