"""Checkpoint/restart economics under radiation-induced crashes.

The paper's introduction raises an open question: voltage overscaling
failures "are typically mitigated by combining voltage overscaling with
error recovery mechanisms, such as checkpointing ... it is unclear
whether energy savings from reduced voltage margins outweigh the
overhead of error recovery mechanisms."  This module answers it
quantitatively for any radiation environment:

* crash MTBF follows from the measured crash FIT scaled to the
  environment's flux multiple of NYC sea level;
* the optimal checkpoint interval is Young's classic
  tau* = sqrt(2 * delta * MTBF) for checkpoint cost delta;
* the expected runtime dilation of checkpointing + rework + restart
  gives an *effective* power and energy-per-work, which can be compared
  across voltage settings -- undervolting only pays if its power
  savings survive the extra recovery work its higher failure rate
  causes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import FIT_HOURS
from ..errors import AnalysisError


@dataclass(frozen=True)
class CheckpointModel:
    """Young-model checkpoint/restart cost accounting.

    Attributes
    ----------
    checkpoint_cost_s:
        Time to take one checkpoint (delta).
    restart_cost_s:
        Time to reboot/restore after a crash (R).
    """

    checkpoint_cost_s: float = 30.0
    restart_cost_s: float = 120.0

    def __post_init__(self) -> None:
        if self.checkpoint_cost_s <= 0 or self.restart_cost_s < 0:
            raise AnalysisError("checkpoint cost must be positive, restart nonnegative")

    # -- failure rates ------------------------------------------------------------

    @staticmethod
    def mtbf_hours(crash_fit: float, environment_factor: float = 1.0) -> float:
        """Mean time between crashes for a FIT rate and environment.

        Parameters
        ----------
        crash_fit:
            Crash FIT at NYC sea level (AppCrash + SysCrash).
        environment_factor:
            Neutron-flux multiple of NYC sea level (1 = ground NYC,
            ~300 = commercial flight altitude, ~1e8 = the TNF beam).
        """
        if crash_fit <= 0:
            raise AnalysisError("crash FIT must be positive")
        if environment_factor <= 0:
            raise AnalysisError("environment factor must be positive")
        return FIT_HOURS / (crash_fit * environment_factor)

    def optimal_interval_s(self, mtbf_hours: float) -> float:
        """Young's optimal checkpoint interval tau* = sqrt(2*delta*MTBF)."""
        if mtbf_hours <= 0:
            raise AnalysisError("MTBF must be positive")
        return math.sqrt(2.0 * self.checkpoint_cost_s * mtbf_hours * 3600.0)

    def overhead_fraction(self, mtbf_hours: float) -> float:
        """Expected fractional runtime dilation at the optimal interval.

        First-order Young model: checkpointing costs delta/tau of all
        time; each failure wastes on average tau/2 of rework plus the
        restart; failures arrive every MTBF.
        """
        mtbf_s = mtbf_hours * 3600.0
        tau = self.optimal_interval_s(mtbf_hours)
        checkpointing = self.checkpoint_cost_s / tau
        rework = (tau / 2.0 + self.restart_cost_s) / mtbf_s
        return checkpointing + rework

    def effective_slowdown(self, mtbf_hours: float) -> float:
        """Wall-clock multiplier on useful work (1 + overhead)."""
        return 1.0 + self.overhead_fraction(mtbf_hours)


@dataclass(frozen=True)
class UndervoltingVerdict:
    """Net outcome of undervolting once recovery overhead is charged.

    Attributes
    ----------
    environment_factor:
        Flux multiple of NYC the comparison was made at.
    raw_savings_fraction:
        Power savings before recovery accounting (Fig. 10's number).
    net_savings_fraction:
        Energy-per-useful-work savings after checkpoint/rework/restart
        dilation at both settings.
    pays_off:
        True when net savings remain positive.
    """

    environment_factor: float
    raw_savings_fraction: float
    net_savings_fraction: float

    @property
    def pays_off(self) -> bool:
        """Does undervolting still save energy per unit of work?"""
        return self.net_savings_fraction > 0.0


def undervolting_verdict(
    nominal_power_w: float,
    nominal_crash_fit: float,
    undervolted_power_w: float,
    undervolted_crash_fit: float,
    checkpointing: CheckpointModel,
    environment_factor: float = 1.0,
) -> UndervoltingVerdict:
    """Compare two settings on energy per useful work, recovery included.

    Energy per useful work = power x effective slowdown; the slowdown
    differs between settings because the undervolted chip crashes more
    often (or less -- the paper measured crash rates *falling* with
    undervolt at fixed frequency, making undervolting strictly better
    in crash-dominated environments).
    """
    if min(nominal_power_w, undervolted_power_w) <= 0:
        raise AnalysisError("powers must be positive")
    nominal_mtbf = checkpointing.mtbf_hours(
        nominal_crash_fit, environment_factor
    )
    undervolted_mtbf = checkpointing.mtbf_hours(
        undervolted_crash_fit, environment_factor
    )
    nominal_energy = nominal_power_w * checkpointing.effective_slowdown(
        nominal_mtbf
    )
    undervolted_energy = (
        undervolted_power_w
        * checkpointing.effective_slowdown(undervolted_mtbf)
    )
    raw = (nominal_power_w - undervolted_power_w) / nominal_power_w
    net = (nominal_energy - undervolted_energy) / nominal_energy
    return UndervoltingVerdict(
        environment_factor=environment_factor,
        raw_savings_fraction=raw,
        net_savings_fraction=net,
    )
