"""Figure 7: upsets per minute per cache level at 790 mV / 900 MHz.

The deep-undervolt session exercises the voltage-domain split: the PMD
arrays (TLB/L1/L2) at 790 mV upset markedly more than at 920 mV, while
the L3 -- in the SoC domain, still at its 950 mV nominal -- stays flat
or drops (Section 4.3's key explanation).
"""

from __future__ import annotations

from ..core.analysis import CampaignAnalysis
from ..core.report import Table
from .config import (
    DEFAULT_SEED,
    DEFAULT_TIME_SCALE,
    ExperimentResult,
    shared_campaign,
)
from .fig6 import LEVEL_ORDER, level_counts


def run(
    seed: int = DEFAULT_SEED,
    time_scale: float = DEFAULT_TIME_SCALE,
    workers: int = 0,
) -> ExperimentResult:
    """Regenerate the Fig. 7 per-level bars from the 900 MHz session."""
    campaign = shared_campaign(seed, time_scale, workers=workers)
    analysis = CampaignAnalysis(campaign)
    label = next(
        label
        for label in campaign.labels()
        if campaign.session(label).plan.point.freq_mhz == 900
    )
    rates = analysis.level_upset_rates(label)

    table = Table(
        title="Figure 7: Upsets per minute per cache level (790 mV @ 900 MHz)",
        header=["Level", "Severity", "Upsets/min"],
    )
    series_rates = {}
    for level, severity in LEVEL_ORDER:
        rate = rates.get(f"{level}/{severity}", 0.0)
        series_rates[(level, severity)] = rate
        table.add_row(level, severity, rate)

    series = {
        "rates": series_rates,
        "counts": level_counts(campaign.session(label)),
        "session": label,
    }
    notes = (
        "PMD arrays (TLB/L1/L2) are at 790 mV; the L3 sits in the SoC "
        "domain at its 950 mV nominal, hence its rate does not rise"
    )
    return ExperimentResult(
        experiment_id="fig7", table=table, series=series, notes=notes
    )
