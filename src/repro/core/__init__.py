"""Core analysis library: cross-sections, FIT rates, and trade-offs.

This is the paper's primary contribution as reusable code: given event
counts and fluences from a radiation campaign (real or simulated), it
computes dynamic cross-sections (Eq. 1), NYC sea-level FIT rates
(Eq. 2), FIT/Mbit SER, Poisson/binomial confidence intervals at the
paper's 95 % level, and the power-vs-susceptibility trade-off series of
Section 5 -- and renders them as the paper's tables and figures.
"""

from .confidence import (
    poisson_interval,
    poisson_rate_interval,
    binomial_interval,
    ConfidenceInterval,
)
from .cross_section import DcsEstimate, dynamic_cross_section, per_bit_cross_section
from .fit import (
    FitEstimate,
    fit_from_dcs,
    fit_rate,
    ser_fit_per_mbit,
    mttf_hours,
)
from .rates import RateEstimate, rate_per_minute
from .tradeoff import TradeoffPoint, TradeoffSeries, build_tradeoff_series
from .report import Table, render_table
from .analysis import CampaignAnalysis
from .energy import (
    CandidatePoint,
    EnergyModel,
    OperatingPointSelector,
    candidates_from_paper_fit,
)
from .guardband import VminPopulation, per_chip_advantage_mv
from .comparison import (
    REFERENCE_STUDIES,
    ReferenceStudy,
    is_consistent_with_reference,
    masking_factor,
    scale_ser_per_bit,
)
from .reporting import CampaignReport
from .ensemble import (
    HEADLINE_METRICS,
    MetricDistribution,
    coefficient_of_variation,
    run_ensemble,
)
from .timeline import (
    ArrivalCheck,
    check_interarrivals,
    dispersion_index,
    expected_multiplicity,
    multi_event_run_fraction,
    run_multiplicity_histogram,
)

__all__ = [
    "poisson_interval",
    "poisson_rate_interval",
    "binomial_interval",
    "ConfidenceInterval",
    "DcsEstimate",
    "dynamic_cross_section",
    "per_bit_cross_section",
    "FitEstimate",
    "fit_from_dcs",
    "fit_rate",
    "ser_fit_per_mbit",
    "mttf_hours",
    "RateEstimate",
    "rate_per_minute",
    "TradeoffPoint",
    "TradeoffSeries",
    "build_tradeoff_series",
    "Table",
    "render_table",
    "CampaignAnalysis",
    "CandidatePoint",
    "EnergyModel",
    "OperatingPointSelector",
    "candidates_from_paper_fit",
    "VminPopulation",
    "per_chip_advantage_mv",
    "REFERENCE_STUDIES",
    "ReferenceStudy",
    "is_consistent_with_reference",
    "masking_factor",
    "scale_ser_per_bit",
    "CampaignReport",
    "HEADLINE_METRICS",
    "MetricDistribution",
    "coefficient_of_variation",
    "run_ensemble",
    "ArrivalCheck",
    "check_interarrivals",
    "dispersion_index",
    "expected_multiplicity",
    "multi_event_run_fraction",
    "run_multiplicity_histogram",
]
