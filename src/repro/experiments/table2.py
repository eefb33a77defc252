"""Table 2: the four neutron beam sessions.

Regenerates every row of Table 2 -- voltages, durations, fluences, NYC
equivalence, failure and upset counts/rates, memory SER -- from a
simulated campaign flown with the paper's session plans.
"""

from __future__ import annotations

from ..core.analysis import CampaignAnalysis
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
    """Fly (or reuse) the campaign and regenerate Table 2."""
    campaign = shared_campaign(seed, time_scale, workers=workers)
    analysis = CampaignAnalysis(campaign)
    table = analysis.table2()
    labels = campaign.labels()
    sessions = [campaign.session(label) for label in labels]
    series = {
        "voltages_mv": [s.plan.point.pmd_mv for s in sessions],
        # Session 3 stops on its (scaled) failure target instead of
        # flying a fixed duration, so its raw counts and fluence are
        # themselves random variables.
        "fixed_duration": [s.plan.target_failures is None for s in sessions],
        "upsets": [s.upset_count for s in sessions],
        "failures": [s.failure_count for s in sessions],
        "upset_rates": [
            analysis.upset_rate(label).per_minute for label in labels
        ],
        "failure_rates": [s.failure_rate_per_min for s in sessions],
        "ser_fit_per_mbit": [analysis.memory_ser(label) for label in labels],
        "fluences": [s.fluence.fluence_per_cm2 for s in sessions],
    }
    notes = (
        f"sessions flown at time_scale={time_scale}; fluences and event "
        "counts scale proportionally, rates and SER are scale-invariant"
    )
    return ExperimentResult(
        experiment_id="table2", table=table, series=series, notes=notes
    )
