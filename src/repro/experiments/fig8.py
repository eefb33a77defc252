"""Figure 8: failure-category percentages per voltage (2.4 GHz).

The end-to-end software-layer result: as voltage drops at fixed
frequency, crash percentages shrink and the SDC share explodes
(Observation #4: ~3x higher SDC probability at Vmin).
"""

from __future__ import annotations

from typing import Dict, List

from ..core.analysis import CampaignAnalysis
from ..core.report import Table
from ..injection.events import OutcomeKind
from .config import (
    DEFAULT_SEED,
    DEFAULT_TIME_SCALE,
    ExperimentResult,
    shared_campaign,
)

#: Fig. 8's category display order.
CATEGORY_ORDER = [OutcomeKind.APP_CRASH, OutcomeKind.SYS_CRASH, OutcomeKind.SDC]


def run(
    seed: int = DEFAULT_SEED,
    time_scale: float = DEFAULT_TIME_SCALE,
    workers: int = 0,
) -> ExperimentResult:
    """Regenerate the Fig. 8 percentage panels from the 2.4 GHz sessions."""
    campaign = shared_campaign(seed, time_scale, workers=workers)
    analysis = CampaignAnalysis(campaign)
    labels = [
        label
        for label in campaign.labels()
        if campaign.session(label).plan.point.freq_mhz == 2400
    ]

    table = Table(
        title="Figure 8: Abnormal behaviour percentages (2.4 GHz)",
        header=["PMD Voltage (mV)"] + [k.value for k in CATEGORY_ORDER],
    )
    mixes: Dict[int, Dict[str, float]] = {}
    counts: Dict[int, Dict[str, int]] = {}
    for label in labels:
        session = campaign.session(label)
        voltage = session.plan.point.pmd_mv
        mix = analysis.failure_mix(label)
        mixes[voltage] = {k.value: mix[k] for k in CATEGORY_ORDER}
        counts[voltage] = {
            kind.value: count for kind, count in session.failure_counts().items()
        }
        table.add_row(voltage, *(mix[k] for k in CATEGORY_ORDER))

    voltages: List[int] = sorted(mixes, reverse=True)
    sdc_ratio = (
        mixes[voltages[-1]]["SDC"] / mixes[voltages[0]]["SDC"]
        if mixes[voltages[0]]["SDC"] > 0
        else float("inf")
    )
    series = {
        "mixes_pct": mixes,
        "counts": counts,
        "sdc_share_increase_x": sdc_ratio,
    }
    return ExperimentResult(experiment_id="fig8", table=table, series=series)
