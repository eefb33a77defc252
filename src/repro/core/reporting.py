"""Campaign report generator: one markdown document per campaign.

Combines every analysis view over a campaign -- Table 2, the failure
mixes, the FIT rates, the notification splits, the arrival-statistics
checks, and the cross-study SER consistency verdict -- into a single
markdown report, the artifact a test campaign actually delivers to its
stakeholders.
"""

from __future__ import annotations

from typing import List

from ..errors import AnalysisError
from ..harness.campaign import CampaignResult
from ..injection.events import OutcomeKind
from ..io.atomic import atomic_write_text
from .analysis import CampaignAnalysis
from .comparison import REFERENCE_STUDIES, is_consistent_with_reference
from .report import Table
from .timeline import check_interarrivals


def _table_to_markdown(table: Table) -> str:
    """Render a :class:`Table` as a GitHub-flavored markdown table."""
    from .report import _format_cell

    lines = [
        "| " + " | ".join(table.header) + " |",
        "|" + "|".join("---" for _ in table.header) + "|",
    ]
    for row in table.rows:
        lines.append("| " + " | ".join(_format_cell(c) for c in row) + " |")
    return "\n".join(lines)


class CampaignReport:
    """Builds the markdown report for one campaign."""

    def __init__(self, campaign: CampaignResult) -> None:
        self.campaign = campaign
        self.analysis = CampaignAnalysis(campaign)

    # -- sections ---------------------------------------------------------------

    def summary_section(self) -> str:
        """Headline numbers."""
        labels = self.campaign.labels()
        nominal, vmin = labels[0], None
        for label in labels:
            point = self.campaign.session(label).plan.point
            if point.freq_mhz == 2400:
                vmin = label
        lines = ["## Summary", ""]
        total_failures = sum(
            self.campaign.session(label).failure_count for label in labels
        )
        total_upsets = sum(
            self.campaign.session(label).upset_count for label in labels
        )
        total_minutes = sum(
            self.campaign.session(label).duration_minutes for label in labels
        )
        lines.append(
            f"- {len(labels)} sessions, {total_minutes:.0f} beam minutes, "
            f"{total_upsets} memory upsets, {total_failures} failures"
        )
        try:
            sdc_x = self.analysis.sdc_fit_increase(vmin, nominal)
            total_x = self.analysis.total_fit_increase(vmin, nominal)
            lines.append(
                f"- SDC FIT increase at Vmin vs nominal: x{sdc_x:.1f}; "
                f"total FIT: x{total_x:.1f}"
            )
        except AnalysisError:
            lines.append(
                "- FIT multipliers unavailable (a session saw no SDCs)"
            )
        return "\n".join(lines)

    def table2_section(self) -> str:
        """The regenerated Table 2."""
        return "## Beam sessions (Table 2)\n\n" + _table_to_markdown(
            self.analysis.table2()
        )

    def failures_section(self) -> str:
        """Failure mixes and FIT rates per session."""
        table = Table(
            title="",
            header=[
                "Session", "AppCrash FIT", "SysCrash FIT", "SDC FIT",
                "Total FIT", "SDC share (%)",
            ],
        )
        for label in self.campaign.labels():
            session = self.campaign.session(label)
            kinds = [
                OutcomeKind.APP_CRASH, OutcomeKind.SYS_CRASH, OutcomeKind.SDC,
            ]
            fits = [self.analysis.category_fit(label, k).fit for k in kinds]
            share = (
                100.0
                * len(session.failures_of_kind(OutcomeKind.SDC))
                / session.failure_count
                if session.failure_count
                else 0.0
            )
            table.add_row(
                label, *fits, self.analysis.total_fit(label).fit, share
            )
        return "## Failures and FIT\n\n" + _table_to_markdown(table)

    def statistics_section(self) -> str:
        """Arrival-statistics health checks per session."""
        lines = ["## Beam-statistics checks", ""]
        for label in self.campaign.labels():
            session = self.campaign.session(label)
            times = [u.time_s for u in session.upsets.upsets]
            if len(times) < 10:
                lines.append(f"- {label}: too few upsets for an arrival check")
                continue
            check = check_interarrivals(times)
            verdict = "Poisson-like" if check.is_poisson_like() else "SUSPECT"
            lines.append(
                f"- {label}: {check.events} upsets, mean spacing "
                f"{check.mean_interarrival_s:.1f}s, KS p={check.ks_pvalue:.3f} "
                f"-> {verdict}"
            )
        return "\n".join(lines)

    def soundness_section(self) -> str:
        """Cross-study SER consistency (the Section 3.5 argument)."""
        reference = next(r for r in REFERENCE_STUDIES if r.static_test)
        lines = ["## Soundness vs published reference", ""]
        for label in self.campaign.labels():
            ser = self.analysis.memory_ser(label)
            ok = is_consistent_with_reference(ser, reference)
            lines.append(
                f"- {label}: {ser:.2f} FIT/Mbit vs {reference.name} "
                f"({reference.ser_fit_per_mbit} static) -> "
                f"{'consistent' if ok else 'INCONSISTENT'}"
            )
        return "\n".join(lines)

    # -- assembly -----------------------------------------------------------------

    def render(self) -> str:
        """The complete markdown report."""
        sections: List[str] = [
            "# Radiation campaign report",
            self.summary_section(),
            self.table2_section(),
            self.failures_section(),
            self.statistics_section(),
            self.soundness_section(),
        ]
        return "\n\n".join(sections) + "\n"

    def write(self, path: str) -> str:
        """Write the report to *path* atomically; returns the path."""
        return atomic_write_text(path, self.render())
