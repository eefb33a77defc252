"""Per-bit SEU cross-section as a function of supply voltage.

The injectors need one number per (array, voltage): the probability per
unit fluence that a given bit flips.  We use the standard exponential
undervolt sensitivity

    sigma(V) = sigma_0 * exp(k_v * (V_nom - V) / V_nom)

the usual first-order form for a critical charge that falls
linearly with supply voltage under an exponential deposited-charge
spectrum; no Qcrit model is evaluated.  ``sigma_0`` and ``k_v`` are fit
so the simulated chip-level upset rates match the paper's
measurements:

* total rate 1.01 upsets/min at 980 mV under the TNF halo flux
  (1.5e6 n/cm^2/s) with the benchmarks' detection efficiency applied,
* +6.9 % at 930 mV, +10.9 % at 920 mV (Fig. 9),
* +16.8 % at 790 mV/900 MHz where only the PMD domain is undervolted
  (Fig. 10).

The calibration helper :func:`fit_voltage_slope` recovers ``k_v`` from
any two (voltage, rate) observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import PMD_NOMINAL_MV, RAW_SRAM_XS_CM2_PER_BIT
from ..errors import ConfigurationError


@dataclass(frozen=True)
class CrossSectionModel:
    """Exponential-undervolt per-bit cross-section model.

    Attributes
    ----------
    sigma0_cm2:
        Per-bit cross-section at nominal voltage (cm^2/bit).
    nominal_mv:
        Nominal voltage of the domain the array lives in.
    voltage_slope:
        Dimensionless sensitivity ``k_v``; the rate multiplier for a
        relative undervolt ``u = (V_nom - V)/V_nom`` is ``exp(k_v * u)``.
    """

    sigma0_cm2: float = RAW_SRAM_XS_CM2_PER_BIT
    nominal_mv: float = float(PMD_NOMINAL_MV)
    voltage_slope: float = 1.7

    def __post_init__(self) -> None:
        if self.sigma0_cm2 <= 0:
            raise ConfigurationError("sigma0 must be positive")
        if self.nominal_mv <= 0:
            raise ConfigurationError("nominal voltage must be positive")
        if self.voltage_slope < 0:
            raise ConfigurationError("voltage slope must be nonnegative")

    def undervolt_fraction(self, supply_mv: float) -> float:
        """Relative undervolt u = (V_nom - V)/V_nom (negative above nominal)."""
        if supply_mv <= 0:
            raise ConfigurationError("supply voltage must be positive")
        return (self.nominal_mv - supply_mv) / self.nominal_mv

    def multiplier(self, supply_mv: float) -> float:
        """sigma(V)/sigma(V_nom) = exp(k_v * u)."""
        return float(np.exp(self.voltage_slope * self.undervolt_fraction(supply_mv)))

    def sigma_cm2(self, supply_mv: float) -> float:
        """Per-bit cross-section at *supply_mv* (cm^2/bit)."""
        return self.sigma0_cm2 * self.multiplier(supply_mv)

    def upset_rate_per_bit_s(self, supply_mv: float, flux_per_cm2_s: float) -> float:
        """Per-bit upset rate (1/s) under a given flux."""
        if flux_per_cm2_s < 0:
            raise ConfigurationError("flux must be nonnegative")
        return self.sigma_cm2(supply_mv) * flux_per_cm2_s

    def with_sigma0(self, sigma0_cm2: float) -> "CrossSectionModel":
        """Copy with a different nominal cross-section (for calibration)."""
        return CrossSectionModel(
            sigma0_cm2=sigma0_cm2,
            nominal_mv=self.nominal_mv,
            voltage_slope=self.voltage_slope,
        )

    @classmethod
    def for_node(cls, node) -> "CrossSectionModel":
        """The cross-section model at a technology node.

        The nominal cross-section scales with the node's ``sigma0``
        factor, the exponential sensitivity with its ``slope`` factor,
        and undervolt fractions are taken against the node's own PMD
        nominal.  The default 28 nm anchor returns the paper-calibrated
        model unchanged.
        """
        if node is None or getattr(node, "is_default", False):
            return cls()
        base = cls()
        return cls(
            sigma0_cm2=base.sigma0_cm2 * node.sigma0_scale,
            nominal_mv=float(node.pmd_nominal_mv),
            voltage_slope=base.voltage_slope * node.slope_scale,
        )


def fit_voltage_slope(
    nominal_mv: float,
    low_mv: float,
    rate_ratio: float,
) -> float:
    """Recover ``k_v`` from one undervolted observation.

    Parameters
    ----------
    nominal_mv / low_mv:
        The two voltage settings compared.
    rate_ratio:
        Measured upset-rate ratio rate(low)/rate(nominal), > 0.

    Returns
    -------
    float
        The slope ``k_v`` such that ``exp(k_v * u) == rate_ratio`` for
        ``u = (nominal_mv - low_mv)/nominal_mv``.
    """
    if rate_ratio <= 0:
        raise ConfigurationError("rate ratio must be positive")
    if nominal_mv <= 0 or low_mv <= 0:
        raise ConfigurationError("voltages must be positive")
    if nominal_mv == low_mv:
        raise ConfigurationError("voltages must differ to fit a slope")
    u = (nominal_mv - low_mv) / nominal_mv
    return float(np.log(rate_ratio) / u)


def calibrate_sigma0(
    target_rate_per_min: float,
    total_bits: float,
    flux_per_cm2_s: float,
    detection_efficiency: float = 1.0,
) -> float:
    """Solve sigma_0 from a target chip-level detected upset rate.

    rate/min = sigma_0 * bits * flux * efficiency * 60

    Parameters
    ----------
    target_rate_per_min:
        Desired detected upsets per minute at nominal voltage.
    total_bits:
        Number of SRAM bits contributing.
    flux_per_cm2_s:
        Beam flux at the DUT.
    detection_efficiency:
        Fraction of raw upsets that the workload/EDAC path observes.
    """
    if min(target_rate_per_min, total_bits, flux_per_cm2_s) <= 0:
        raise ConfigurationError("rate, bits and flux must be positive")
    if not 0 < detection_efficiency <= 1:
        raise ConfigurationError("detection efficiency must be in (0, 1]")
    per_second = target_rate_per_min / 60.0
    return per_second / (total_bits * flux_per_cm2_s * detection_efficiency)
