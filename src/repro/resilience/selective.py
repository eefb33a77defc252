"""Budgeted selective hardening of core structures.

Wu & Marculescu [81] frame soft-error hardening as an optimization:
protect the structures with the best reliability-per-cost under a
budget.  Given the per-structure SDC-FIT contributions from
:mod:`repro.injection.microarch` and per-structure protection costs
(area/power of parity, ECC or hardened cells), the greedy
density-ordered knapsack below chooses what to protect -- the
actionable form of the paper's design implication #4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import AnalysisError


@dataclass(frozen=True)
class HardeningOption:
    """One protectable structure.

    Attributes
    ----------
    structure:
        Structure name.
    sdc_fit:
        SDC FIT the structure contributes unprotected.
    coverage:
        Fraction of that FIT the protection removes (parity on a
        read-mostly structure ~0.95; hardened flops ~0.99).
    cost:
        Protection cost in budget units (e.g. % core power).
    """

    structure: str
    sdc_fit: float
    coverage: float
    cost: float

    def __post_init__(self) -> None:
        if self.sdc_fit < 0 or self.cost <= 0:
            raise AnalysisError("FIT must be nonnegative and cost positive")
        if not 0 < self.coverage <= 1:
            raise AnalysisError("coverage must be in (0, 1]")

    @property
    def fit_removed(self) -> float:
        """SDC FIT eliminated when this option is taken."""
        return self.sdc_fit * self.coverage

    @property
    def density(self) -> float:
        """FIT removed per unit cost -- the greedy ordering key."""
        return self.fit_removed / self.cost


@dataclass(frozen=True)
class HardeningChoice:
    """The selected protection set.

    Attributes
    ----------
    selected:
        Options taken, in selection order.
    total_cost:
        Budget consumed.
    fit_removed:
        Total SDC FIT eliminated.
    fit_remaining:
        SDC FIT left over all candidate structures.
    """

    selected: List[HardeningOption]
    total_cost: float
    fit_removed: float
    fit_remaining: float

    @property
    def reduction_fraction(self) -> float:
        """Fraction of the candidate SDC FIT removed."""
        total = self.fit_removed + self.fit_remaining
        return self.fit_removed / total if total > 0 else 0.0


def select_hardening(
    options: List[HardeningOption], budget: float
) -> HardeningChoice:
    """Greedy density-ordered selection under a cost budget.

    Greedy is optimal when costs are small relative to the budget and
    within a factor of the optimum generally -- and matches how
    architects actually iterate ("protect the worst offender next").
    """
    if budget <= 0:
        raise AnalysisError("budget must be positive")
    if not options:
        raise AnalysisError("no hardening options given")
    remaining_budget = budget
    selected: List[HardeningOption] = []
    removed = 0.0
    for option in sorted(options, key=lambda o: o.density, reverse=True):
        if option.cost <= remaining_budget:
            selected.append(option)
            remaining_budget -= option.cost
            removed += option.fit_removed
    total_fit = sum(o.sdc_fit for o in options)
    return HardeningChoice(
        selected=selected,
        total_cost=budget - remaining_budget,
        fit_removed=removed,
        fit_remaining=total_fit - removed,
    )


def options_from_microarch(
    injector,
    coverage: float = 0.95,
    susceptibility_multiplier: float = 1.0,
) -> List[HardeningOption]:
    """Build hardening options from a :class:`MicroarchInjector`.

    Cost scales with structure size (protection bits are proportional,
    0.08 per kbit); the voltage multiplier prices the options at a
    scaled supply.
    """
    from ..injection.events import OutcomeKind

    options = []
    for structure in injector.structures:
        fit = injector.structure_fit(
            structure.name, OutcomeKind.SDC, susceptibility_multiplier
        )
        if fit <= 0:
            continue
        options.append(
            HardeningOption(
                structure=structure.name,
                sdc_fit=fit,
                coverage=coverage,
                cost=0.08 * structure.bits / 1024.0,
            )
        )
    if not options:
        raise AnalysisError("no vulnerable structures to harden")
    return options
