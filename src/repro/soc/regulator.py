"""Voltage-regulator and power-delivery droop model.

The micro-viruses (:mod:`repro.harness.viruses`) carry calibrated
"droop penalties"; this module derives such numbers from first-order
power-delivery physics: a load step di on the core rail sags the supply
by

    droop = di * R_pdn + L_pdn * di/dt

(resistive IR drop plus the inductive kick before the regulator and
decoupling respond).  It also explains *why* the voltage guardband
exists at all: the nominal voltage must cover the worst di/dt event any
workload can produce, which is exactly the margin undervolting
characterization claws back on well-behaved workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import volts_to_mv


@dataclass(frozen=True)
class PowerDeliveryNetwork:
    """First-order PDN electrical model.

    Attributes
    ----------
    resistance_mohm:
        Effective series resistance of the rail (milliohms).
    inductance_nh:
        Effective loop inductance (nanohenries).
    response_time_ns:
        Time over which a load step develops (sets di/dt).
    """

    resistance_mohm: float = 0.6
    inductance_nh: float = 0.009
    response_time_ns: float = 3.0

    def __post_init__(self) -> None:
        if min(
            self.resistance_mohm, self.inductance_nh, self.response_time_ns
        ) <= 0:
            raise ConfigurationError("PDN parameters must be positive")

    def ir_drop_mv(self, current_step_a: float) -> float:
        """Resistive component of the droop (mV)."""
        if current_step_a < 0:
            raise ConfigurationError("current step must be nonnegative")
        return current_step_a * self.resistance_mohm

    def didt_kick_mv(self, current_step_a: float) -> float:
        """Inductive component of the droop (mV)."""
        if current_step_a < 0:
            raise ConfigurationError("current step must be nonnegative")
        didt = current_step_a / (self.response_time_ns * 1e-9)
        return volts_to_mv(self.inductance_nh * 1e-9 * didt)

    def droop_mv(self, current_step_a: float) -> float:
        """Total first-order droop for a load step (mV)."""
        return self.ir_drop_mv(current_step_a) + self.didt_kick_mv(
            current_step_a
        )


@dataclass(frozen=True)
class LoadProfile:
    """A workload's electrical personality on the core rail.

    Attributes
    ----------
    name:
        Workload label.
    baseline_current_a:
        Sustained rail current.
    step_current_a:
        Largest coincident load step (all units firing at once).
    """

    name: str
    baseline_current_a: float
    step_current_a: float

    def __post_init__(self) -> None:
        if self.baseline_current_a < 0 or self.step_current_a < 0:
            raise ConfigurationError("currents must be nonnegative")


#: Electrical personalities on the ~0.98 V PMD rail (~20 W chip: ~15 A
#: core-side).  The power virus synchronizes every FMA unit -- a far
#: larger coincident step than any real benchmark produces.
LOAD_PROFILES = {
    "benchmark-average": LoadProfile(
        "benchmark-average", baseline_current_a=13.0, step_current_a=2.5
    ),
    "power-virus": LoadProfile(
        "power-virus", baseline_current_a=16.0, step_current_a=6.5
    ),
    "cache-thrash": LoadProfile(
        "cache-thrash", baseline_current_a=12.0, step_current_a=5.0
    ),
    "bus-toggle": LoadProfile(
        "bus-toggle", baseline_current_a=12.5, step_current_a=4.5
    ),
}


def droop_penalty_mv(
    profile: LoadProfile,
    pdn: PowerDeliveryNetwork = PowerDeliveryNetwork(),
    reference: LoadProfile = None,
) -> float:
    """Extra droop of a load profile over the benchmark average (mV).

    This is the quantity the micro-viruses carry as
    ``droop_penalty_mv``: how much lower the rail sags under the virus
    than under an ordinary workload, and therefore how much higher the
    virus-characterized Vmin sits.
    """
    reference = reference or LOAD_PROFILES["benchmark-average"]
    own = pdn.droop_mv(profile.step_current_a)
    base = pdn.droop_mv(reference.step_current_a)
    return max(own - base, 0.0)
