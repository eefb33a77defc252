"""Power-vs-susceptibility trade-off analytics (Section 5).

Builds the Fig. 9 series (absolute power vs upsets/minute) and the
Fig. 10 series (power savings % vs susceptibility increase %) from the
calibrated power and rate models, and provides the comparison helpers
behind Observations #5-#7: where the susceptibility curve outpaces the
savings curve and how little the clock frequency matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import AnalysisError
from ..injection.calibration import LevelRateModel
from ..soc.dvfs import OperatingPoint, TABLE3_OPERATING_POINTS
from ..soc.power import PowerModel


@dataclass(frozen=True)
class TradeoffPoint:
    """One operating point of the Fig. 9 / Fig. 10 series.

    Attributes
    ----------
    point:
        The (frequency, voltages) setting.
    power_watts:
        Average chip power at the setting.
    upsets_per_min:
        Expected detected cache-upset rate at the setting.
    power_savings_pct:
        Power savings vs the nominal setting, percent.
    susceptibility_increase_pct:
        Upset-rate increase vs the nominal setting, percent.
    """

    point: OperatingPoint
    power_watts: float
    upsets_per_min: float
    power_savings_pct: float
    susceptibility_increase_pct: float


@dataclass(frozen=True)
class TradeoffSeries:
    """The full trade-off curve over a list of operating points."""

    points: List[TradeoffPoint]

    def __post_init__(self) -> None:
        if not self.points:
            raise AnalysisError("a trade-off series needs at least one point")

    @property
    def nominal(self) -> TradeoffPoint:
        """The first (reference) point of the series."""
        return self.points[0]

    def by_label(self, label: str) -> TradeoffPoint:
        """Look one point up by its operating-point label."""
        for p in self.points:
            if p.point.label == label:
                return p
        raise AnalysisError(f"no point labelled {label!r}")

    def savings_outpaced_by_susceptibility(self) -> List[TradeoffPoint]:
        """Points where susceptibility grew faster than savings.

        Observation #7: at 2.4 GHz the susceptibility increase runs
        ahead of the power savings; only the combined voltage+frequency
        reduction flips the balance.
        """
        return [
            p
            for p in self.points[1:]
            if p.susceptibility_increase_pct > p.power_savings_pct
        ]


def build_tradeoff_series(
    power_model: Optional[PowerModel] = None,
    rate_model: Optional[LevelRateModel] = None,
    points: Optional[List[OperatingPoint]] = None,
) -> TradeoffSeries:
    """Build the Fig. 9/10 series over the Table 3 operating points.

    The first point in *points* is the reference for both percentage
    axes (the paper uses 980 mV @ 2.4 GHz).
    """
    power_model = power_model or PowerModel.calibrated()
    rate_model = rate_model or LevelRateModel()
    points = points or TABLE3_OPERATING_POINTS

    reference = points[0]
    ref_power = power_model.total_watts(
        reference.pmd_mv, reference.soc_mv, reference.freq_mhz
    )
    ref_rate = rate_model.total_rate_per_min(
        reference.pmd_mv, reference.soc_mv
    )
    if ref_power <= 0 or ref_rate <= 0:
        raise AnalysisError("reference point must have positive power/rate")

    series = []
    for point in points:
        watts = power_model.total_watts(
            point.pmd_mv, point.soc_mv, point.freq_mhz
        )
        rate = rate_model.total_rate_per_min(point.pmd_mv, point.soc_mv)
        series.append(
            TradeoffPoint(
                point=point,
                power_watts=watts,
                upsets_per_min=rate,
                power_savings_pct=(ref_power - watts) / ref_power * 100.0,
                susceptibility_increase_pct=(rate / ref_rate - 1.0) * 100.0,
            )
        )
    return TradeoffSeries(points=series)
