"""Campaign-level analysis: from raw session data to the paper's results.

:class:`CampaignAnalysis` wraps a
:class:`~repro.harness.campaign.CampaignResult` and exposes one method
per published result: Table 2 rows, Fig. 8 failure mixes, Fig. 11 FIT
rates, Fig. 12/13 notification splits, and per-benchmark upset rates
(Fig. 5).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import AnalysisError
from ..harness.campaign import CampaignResult
from ..injection.events import OutcomeKind
from .fit import FitEstimate, fit_rate, ser_fit_per_mbit
from .rates import RateEstimate, rate_per_minute
from .report import Table


class CampaignAnalysis:
    """Analysis views over a completed campaign."""

    def __init__(self, campaign: CampaignResult) -> None:
        if not campaign.sessions:
            raise AnalysisError("campaign has no sessions")
        if campaign.sram_bits <= 0:
            raise AnalysisError("campaign must record the chip SRAM size")
        self.campaign = campaign

    # -- Table 2 -------------------------------------------------------------------

    def table2(self) -> Table:
        """Regenerate Table 2 (one column per session, transposed to rows)."""
        table = Table(
            title="Table 2: Neutron Beam Time Sessions",
            header=[
                "Session",
                "Voltage (mV)",
                "Duration (min)",
                "Fluence (n/cm2)",
                "NYC-equivalent (years)",
                "SDCs and crashes (#)",
                "SDCs and crashes rate (/min)",
                "Memory upsets (#)",
                "Memory upsets rate (/min)",
                "Memory SER (FIT/Mbit)",
            ],
        )
        for label in self.campaign.labels():
            s = self.campaign.session(label)
            table.add_row(
                label,
                s.plan.point.pmd_mv,
                round(s.duration_minutes, 1),
                s.fluence.fluence_per_cm2,
                s.fluence.nyc_equivalent_years(),
                s.failure_count,
                s.failure_rate_per_min,
                s.upset_count,
                s.upset_rate_per_min,
                s.memory_ser_fit_per_mbit(self.campaign.sram_bits),
            )
        return table

    # -- rates ----------------------------------------------------------------------

    def upset_rate(self, label: str) -> RateEstimate:
        """Memory-upset rate of one session, with its 95 % interval."""
        s = self.campaign.session(label)
        return rate_per_minute(s.upset_count, s.duration_minutes)

    def benchmark_upset_rates(self, label: str) -> Dict[str, RateEstimate]:
        """Per-benchmark upset rates within one session (Fig. 5 view)."""
        s = self.campaign.session(label)
        struck = {index: counts for index, counts, _ in s.busy_runs}
        per_bench: Dict[str, List[float]] = {}
        for index, (benchmark, _, duration_s) in enumerate(
            s.flown_schedule()
        ):
            totals = per_bench.setdefault(benchmark, [0.0, 0.0])
            if index in struck:
                totals[0] += sum(struck[index].values())
            totals[1] += duration_s / 60.0
        out = {}
        for bench, (events, minutes) in sorted(per_bench.items()):
            if minutes > 0:
                out[bench] = rate_per_minute(int(events), minutes)
        return out

    def level_upset_rates(self, label: str) -> Dict[str, float]:
        """Upsets/minute per (cache level, severity) for one session.

        Keys look like ``"L2 Cache/CE"`` -- the Fig. 6/7 bars.
        """
        s = self.campaign.session(label)
        minutes = s.duration_minutes
        if minutes <= 0:
            raise AnalysisError(f"session {label!r} has no beam time")
        rates: Dict[str, float] = {}
        for (level, severity), count in sorted(
            s.upsets.counts.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
        ):
            rates[f"{level.value}/{severity.value}"] = count / minutes
        return rates

    # -- failure mixes (Fig. 8) --------------------------------------------------------

    def failure_mix(self, label: str) -> Dict[OutcomeKind, float]:
        """Failure-category percentages for one session (Fig. 8)."""
        s = self.campaign.session(label)
        counts = s.failure_counts()
        total = sum(counts.values())
        if total == 0:
            raise AnalysisError(f"session {label!r} observed no failures")
        return {kind: 100.0 * n / total for kind, n in counts.items()}

    # -- FIT rates (Figs. 11-13) ----------------------------------------------------------

    def category_fit(self, label: str, kind: OutcomeKind) -> FitEstimate:
        """FIT of one failure category in one session (a Fig. 11 bar)."""
        s = self.campaign.session(label)
        events = len(s.failures_of_kind(kind))
        return fit_rate(events, s.fluence.fluence_per_cm2)

    def total_fit(self, label: str) -> FitEstimate:
        """Total failure FIT of one session (Fig. 11's Total bar)."""
        s = self.campaign.session(label)
        return fit_rate(s.failure_count, s.fluence.fluence_per_cm2)

    def sdc_fit_by_notification(self, label: str) -> Dict[str, FitEstimate]:
        """SDC FIT split by hardware notification (Figs. 12-13)."""
        s = self.campaign.session(label)
        sdcs = s.failures_of_kind(OutcomeKind.SDC)
        notified = sum(1 for f in sdcs if f.hw_notified)
        silent = len(sdcs) - notified
        fluence = s.fluence.fluence_per_cm2
        return {
            "without_notification": fit_rate(silent, fluence),
            "with_notification": fit_rate(notified, fluence),
        }

    def memory_ser(self, label: str) -> float:
        """Memory SER in FIT/Mbit for one session (Table 2, last row)."""
        s = self.campaign.session(label)
        return ser_fit_per_mbit(
            s.upset_count, s.fluence.fluence_per_cm2, self.campaign.sram_bits
        )

    # -- cross-session comparisons -----------------------------------------------------------

    def sdc_fit_increase(
        self, low_label: str, nominal_label: Optional[str] = None
    ) -> float:
        """SDC FIT multiplier of a low-voltage session over nominal.

        The paper's headline: 16.3x at Vmin (920 mV) vs nominal.
        """
        nominal_label = nominal_label or self.campaign.labels()[0]
        low = self.category_fit(low_label, OutcomeKind.SDC).fit
        nom = self.category_fit(nominal_label, OutcomeKind.SDC).fit
        if nom <= 0:
            raise AnalysisError("nominal session has zero SDC FIT")
        return low / nom

    def total_fit_increase(
        self, low_label: str, nominal_label: Optional[str] = None
    ) -> float:
        """Total FIT multiplier of a low-voltage session over nominal."""
        nominal_label = nominal_label or self.campaign.labels()[0]
        low = self.total_fit(low_label).fit
        nom = self.total_fit(nominal_label).fit
        if nom <= 0:
            raise AnalysisError("nominal session has zero total FIT")
        return low / nom
