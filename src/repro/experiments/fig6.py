"""Figure 6: upsets per minute per cache level (2.4 GHz).

Breaks the 2.4 GHz sessions' upsets down by cache level and EDAC
severity.  The paper's two observations should both be visible: larger
arrays upset more (L3 > L2 > L1 > TLB), and lower voltage raises every
level's rate; uncorrected errors appear only in the non-interleaved L3.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.analysis import CampaignAnalysis
from ..core.report import Table
from .config import (
    DEFAULT_SEED,
    DEFAULT_TIME_SCALE,
    ExperimentResult,
    shared_campaign,
)

#: Fig. 6's bar order: (level, severity) pairs.
LEVEL_ORDER: List[Tuple[str, str]] = [
    ("TLBs", "CE"),
    ("L1 Cache", "CE"),
    ("L2 Cache", "CE"),
    ("L3 Cache", "CE"),
    ("L3 Cache", "UE"),
]


def level_counts(session) -> Dict[Tuple[str, str], int]:
    """One session's upset count per Fig. 6/7 bar, in LEVEL_ORDER.

    Zero-filled: a session short enough to observe no events of some
    (level, severity) still has a bar, and 0 is inside any Poisson
    acceptance band with a small scaled mean.
    """
    counts = {
        (level.value, severity.value): count
        for (level, severity), count in session.upsets.counts.items()
    }
    return {key: counts.get(key, 0) for key in LEVEL_ORDER}


def _collect(campaign, analysis: CampaignAnalysis, labels: List[str]):
    """Per-bar upset rates and counts, one entry per session."""
    rates: Dict[Tuple[str, str], List[float]] = {key: [] for key in LEVEL_ORDER}
    counts: Dict[Tuple[str, str], List[int]] = {key: [] for key in LEVEL_ORDER}
    for label in labels:
        session_rates = analysis.level_upset_rates(label)
        session_counts = level_counts(campaign.session(label))
        for level, severity in LEVEL_ORDER:
            rates[(level, severity)].append(
                session_rates.get(f"{level}/{severity}", 0.0)
            )
            counts[(level, severity)].append(session_counts[(level, severity)])
    return rates, counts


def run(
    seed: int = DEFAULT_SEED,
    time_scale: float = DEFAULT_TIME_SCALE,
    workers: int = 0,
) -> ExperimentResult:
    """Regenerate the Fig. 6 per-level bars from the 2.4 GHz sessions."""
    campaign = shared_campaign(seed, time_scale, workers=workers)
    analysis = CampaignAnalysis(campaign)
    labels = [
        label
        for label in campaign.labels()
        if campaign.session(label).plan.point.freq_mhz == 2400
    ]
    voltages = [
        campaign.session(label).plan.point.pmd_mv for label in labels
    ]
    rates, counts = _collect(campaign, analysis, labels)

    table = Table(
        title="Figure 6: Upsets per minute per cache level (2.4 GHz)",
        header=["Level", "Severity"] + [f"{v} mV" for v in voltages],
    )
    for (level, severity), row in rates.items():
        table.add_row(level, severity, *row)

    series = {"rates": rates, "counts": counts, "voltages_mv": voltages}
    return ExperimentResult(experiment_id="fig6", table=table, series=series)
