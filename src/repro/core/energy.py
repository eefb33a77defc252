"""Energy accounting and reliability-constrained operating-point selection.

Two analyses the paper motivates but leaves to the reader:

* **Energy per unit of work.**  Undervolting at fixed frequency cuts
  power with no performance cost, so energy/work falls one-for-one with
  power.  Cutting the *clock* also cuts power but stretches runtime, so
  the energy story at 790 mV / 900 MHz needs the runtime model, not
  just Fig. 9's watts.
* **Design implication #2 as an optimizer.**  "Operate slightly above
  the lowest safe Vmin": :class:`OperatingPointSelector` makes that
  quantitative -- among the characterized settings, pick the
  lowest-energy point whose SDC FIT stays under a budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import AnalysisError
from ..soc.dvfs import OperatingPoint, TABLE3_OPERATING_POINTS
from ..soc.power import PowerModel


@dataclass(frozen=True)
class EnergyModel:
    """Energy/runtime model over operating points.

    Attributes
    ----------
    power_model:
        Calibrated chip power model.
    reference_freq_mhz:
        Frequency the workload runtimes were measured at.
    compute_bound_fraction:
        Fraction of runtime that scales inversely with clock frequency
        (1.0 = fully compute bound; memory-bound phases do not stretch).
    """

    power_model: PowerModel
    reference_freq_mhz: int = 2400
    compute_bound_fraction: float = 0.85

    def __post_init__(self) -> None:
        if not 0.0 <= self.compute_bound_fraction <= 1.0:
            raise AnalysisError("compute-bound fraction must be in [0, 1]")
        if self.reference_freq_mhz <= 0:
            raise AnalysisError("reference frequency must be positive")

    def runtime_scale(self, freq_mhz: int) -> float:
        """Runtime multiplier at *freq_mhz* vs the reference clock."""
        if freq_mhz <= 0:
            raise AnalysisError("frequency must be positive")
        slowdown = self.reference_freq_mhz / freq_mhz
        f = self.compute_bound_fraction
        return f * slowdown + (1.0 - f)

    def runtime_s(self, reference_runtime_s: float, point: OperatingPoint) -> float:
        """Workload runtime at an operating point."""
        if reference_runtime_s <= 0:
            raise AnalysisError("reference runtime must be positive")
        return reference_runtime_s * self.runtime_scale(point.freq_mhz)

    def energy_joules(
        self,
        reference_runtime_s: float,
        point: OperatingPoint,
        activity: float = 1.0,
    ) -> float:
        """Energy of one workload execution at an operating point."""
        watts = self.power_model.total_watts(
            point.pmd_mv, point.soc_mv, point.freq_mhz, activity=activity
        )
        return watts * self.runtime_s(reference_runtime_s, point)


@dataclass(frozen=True)
class CandidatePoint:
    """One characterized operating point with its measured FIT rates."""

    point: OperatingPoint
    sdc_fit: float
    total_fit: float

    def __post_init__(self) -> None:
        if self.sdc_fit < 0 or self.total_fit < 0:
            raise AnalysisError("FIT rates must be nonnegative")


class OperatingPointSelector:
    """Chooses the most energy-efficient point under a reliability budget.

    Parameters
    ----------
    energy_model:
        Energy accounting model.
    reference_runtime_s:
        Runtime of the representative workload at the reference clock.
    """

    def __init__(
        self,
        energy_model: EnergyModel,
        reference_runtime_s: float = 3.0,
    ) -> None:
        if reference_runtime_s <= 0:
            raise AnalysisError("reference runtime must be positive")
        self.energy_model = energy_model
        self.reference_runtime_s = reference_runtime_s

    def feasible(
        self,
        candidates: List[CandidatePoint],
        sdc_fit_budget: float,
        total_fit_budget: Optional[float] = None,
    ) -> List[CandidatePoint]:
        """Candidates whose FIT rates stay within the budgets."""
        if sdc_fit_budget <= 0:
            raise AnalysisError("SDC FIT budget must be positive")
        out = []
        for candidate in candidates:
            if candidate.sdc_fit > sdc_fit_budget:
                continue
            if total_fit_budget is not None and (
                candidate.total_fit > total_fit_budget
            ):
                continue
            out.append(candidate)
        return out

    def select(
        self,
        candidates: List[CandidatePoint],
        sdc_fit_budget: float,
        total_fit_budget: Optional[float] = None,
        *,
        preserve_performance: bool = False,
    ) -> CandidatePoint:
        """The lowest-energy feasible candidate.

        With ``preserve_performance=True``, candidates at reduced clock
        frequency are excluded (the paper's "voltage reduction does not
        affect performance, frequency reduction does").
        """
        feasible = self.feasible(candidates, sdc_fit_budget, total_fit_budget)
        if preserve_performance:
            reference = self.energy_model.reference_freq_mhz
            feasible = [c for c in feasible if c.point.freq_mhz == reference]
        if not feasible:
            raise AnalysisError("no operating point satisfies the FIT budget")
        return min(
            feasible,
            key=lambda c: self.energy_model.energy_joules(
                self.reference_runtime_s, c.point
            ),
        )


def candidates_from_paper_fit() -> List[CandidatePoint]:
    """The Table 3 points with the paper's Fig. 11/13 FIT rates."""
    nominal, safe, vmin, lowfreq = TABLE3_OPERATING_POINTS
    return [
        CandidatePoint(nominal, sdc_fit=2.54, total_fit=8.31),
        CandidatePoint(safe, sdc_fit=4.82, total_fit=8.66),
        CandidatePoint(vmin, sdc_fit=41.43, total_fit=44.94),
        CandidatePoint(lowfreq, sdc_fit=5.27, total_fit=11.42),
    ]
