"""Voltage / frequency control (the paper's two experiment knobs).

Frequency is controlled *per dual-core pair* between 300 MHz and
2.4 GHz in 300 MHz steps; voltage is controlled per domain (see
:mod:`repro.soc.domains`).  The study keeps DVFS disabled and pins
explicit (voltage, frequency) operating points -- Table 3:

======== ============ ============ =============
setting  frequency    PMD voltage  SoC voltage
======== ============ ============ =============
Nominal  2.4 GHz      980 mV       950 mV
Safe     2.4 GHz      930 mV       925 mV
Vmin     2.4 GHz      920 mV       920 mV
Vmin     900 MHz      790 mV       950 mV
======== ============ ============ =============
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .. import constants
from ..errors import FrequencyError
from .domains import DomainName, VoltageDomain


@dataclass(frozen=True)
class OperatingPoint:
    """One pinned (frequency, PMD voltage, SoC voltage) setting.

    Attributes
    ----------
    label:
        The paper's name for the setting ("Nominal", "Safe", "Vmin", ...).
    freq_mhz:
        Clock frequency of all pairs, MHz.
    pmd_mv / soc_mv:
        Domain voltages in millivolts.
    """

    label: str
    freq_mhz: int
    pmd_mv: int
    soc_mv: int

    def __str__(self) -> str:
        return (
            f"{self.label}: {self.freq_mhz} MHz, PMD {self.pmd_mv} mV, "
            f"SoC {self.soc_mv} mV"
        )


#: The exact experimental matrix of Table 3.
TABLE3_OPERATING_POINTS: List[OperatingPoint] = [
    OperatingPoint("Nominal", 2400, 980, 950),
    OperatingPoint("Safe", 2400, 930, 925),
    OperatingPoint("Vmin", 2400, 920, 920),
    OperatingPoint("Vmin@900MHz", 900, 790, 950),
]


class DvfsController:
    """Programs pair frequencies and domain voltages.

    DVFS (automatic scaling) stays disabled, matching the experiments;
    this class only applies explicit operating points and validates them
    against the hardware's reachable grid.
    """

    def __init__(
        self,
        pmd: VoltageDomain,
        soc: VoltageDomain,
        freq_min_mhz: int = None,
        freq_max_mhz: int = None,
        freq_step_mhz: int = None,
        num_pairs: int = None,
    ) -> None:
        self._pmd = pmd
        self._soc = soc
        self.freq_min_mhz = (
            constants.FREQ_MIN_MHZ if freq_min_mhz is None else int(freq_min_mhz)
        )
        self.freq_max_mhz = (
            constants.FREQ_MAX_MHZ if freq_max_mhz is None else int(freq_max_mhz)
        )
        self.freq_step_mhz = (
            constants.FREQ_STEP_MHZ
            if freq_step_mhz is None
            else int(freq_step_mhz)
        )
        if not 0 < self.freq_min_mhz <= self.freq_max_mhz:
            raise FrequencyError("frequency range must be positive and ordered")
        if self.freq_step_mhz <= 0:
            raise FrequencyError("frequency step must be positive")
        pairs = constants.NUM_PAIRS if num_pairs is None else int(num_pairs)
        if pairs < 1:
            raise FrequencyError("need at least one core pair")
        self._pair_freq_mhz: Dict[int, int] = {
            pair: self.freq_max_mhz for pair in range(pairs)
        }

    # -- frequency --------------------------------------------------------------

    def set_all_frequencies(self, mhz: int) -> None:
        """Set every pair to the same clock (the experiments' usage)."""
        self._validate_frequency(mhz)
        for pair in self._pair_freq_mhz:
            self._pair_freq_mhz[pair] = int(mhz)

    @property
    def uniform_frequency_mhz(self) -> int:
        """The common clock when all pairs agree (the experiments' case)."""
        freqs = set(self._pair_freq_mhz.values())
        if len(freqs) != 1:
            raise FrequencyError("pairs run at different frequencies")
        return next(iter(freqs))

    def _validate_frequency(self, mhz: int) -> None:
        if not self.freq_min_mhz <= mhz <= self.freq_max_mhz:
            raise FrequencyError(
                f"{mhz} MHz outside [{self.freq_min_mhz}, "
                f"{self.freq_max_mhz}] MHz"
            )
        if mhz % self.freq_step_mhz:
            raise FrequencyError(
                f"{mhz} MHz not on the {self.freq_step_mhz} MHz grid"
            )

    # -- operating points ---------------------------------------------------------

    def apply(self, point: OperatingPoint) -> None:
        """Pin the chip to one operating point (voltages + frequency)."""
        self.set_all_frequencies(point.freq_mhz)
        self._pmd.set_voltage(point.pmd_mv)
        self._soc.set_voltage(point.soc_mv)

    def current_point(self, label: str = "current") -> OperatingPoint:
        """Snapshot the chip's present setting as an operating point."""
        return OperatingPoint(
            label=label,
            freq_mhz=self.uniform_frequency_mhz,
            pmd_mv=self._pmd.voltage_mv,
            soc_mv=self._soc.voltage_mv,
        )

    def domain_voltage_mv(self, domain: str) -> int:
        """Voltage of the named domain ("pmd" / "soc"), in millivolts."""
        if domain == DomainName.PMD.value:
            return self._pmd.voltage_mv
        if domain == DomainName.SOC.value:
            return self._soc.voltage_mv
        raise FrequencyError(f"unknown domain {domain!r}")
