"""Figure 13: SDC FIT split at 790 mV / 900 MHz.

The same notification split as Fig. 12, for the deep-undervolt
low-frequency session -- confirming the behaviour persists across
clock frequencies.
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


def run(
    seed: int = DEFAULT_SEED,
    time_scale: float = DEFAULT_TIME_SCALE,
    workers: int = 0,
) -> ExperimentResult:
    """Regenerate the Fig. 13 SDC FIT split from the 900 MHz session."""
    campaign = shared_campaign(seed, time_scale, workers=workers)
    analysis = CampaignAnalysis(campaign)
    label = next(
        label
        for label in campaign.labels()
        if campaign.session(label).plan.point.freq_mhz == 900
    )
    fits = analysis.sdc_fit_by_notification(label)
    without, notified = fits["without_notification"], fits["with_notification"]

    table = Table(
        title="Figure 13: SDC FIT w/ and w/o notification (790 mV @ 900 MHz)",
        header=["SDC FIT w/o notification", "SDC FIT w/ corrected notification"],
    )
    table.add_row(without.fit, notified.fit)
    series = {
        "sdc_fit": {"without": without.fit, "with": notified.fit},
        "without_upper": without.interval.upper,
        "sdc_notified": notified.events,
        "sdcs": without.events + notified.events,
    }
    notes = (
        "session 4 flew only 165 minutes (13 events in the paper), so "
        "this split carries the campaign's largest statistical uncertainty"
    )
    return ExperimentResult(
        experiment_id="fig13", table=table, series=series, notes=notes
    )
