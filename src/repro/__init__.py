"""repro: voltage-scaled soft-error susceptibility of a multicore server CPU.

A full reproduction of *"Impact of Voltage Scaling on Soft Errors
Susceptibility of Multicore Server CPUs"* (MICRO 2023) as a Python
library.  The irradiated hardware is replaced by calibrated simulation
substrates (see DESIGN.md); the analysis pipeline, experiment harness
and every table/figure generator are faithful to the paper.

Quickstart::

    from repro import Campaign, CampaignAnalysis

    campaign = Campaign(seed=2023, time_scale=0.05).run()
    analysis = CampaignAnalysis(campaign)
    print(analysis.table2().render())

Subpackages
-----------
``repro.core``
    Cross-section / FIT / SER analysis with confidence intervals and
    the power-vs-susceptibility trade-off analytics.
``repro.soc``
    The X-Gene 2 chip model: caches, TLBs, voltage domains, DVFS,
    EDAC, power, SLIMpro.
``repro.sram``
    SRAM soft-error physics: sigma(V) cross-sections, MBUs, parity and
    SECDED codecs, arrays, scrubbing.
``repro.beam``
    The TRIUMF TNF neutron beam: flux, spectrum, positioning,
    dosimetry, fluence.
``repro.workloads``
    Six NPB-style kernels with golden-output verification.
``repro.injection``
    Beam-driven Monte-Carlo injection, outcome propagation, AVF tools,
    and concrete bit-flip injection into live kernels.
``repro.harness``
    Vmin characterization, the Control-PC, beam sessions, campaigns.
``repro.engine``
    The execution layer: execution contexts, serial/parallel executors.
``repro.telemetry``
    Observability: metrics, span tracing, run manifests, exporters.
``repro.resilient``
    Fault tolerance: checkpoint/resume journal, supervised execution,
    deterministic chaos injection.
``repro.codecs``
    Pluggable ECC design space: codec registry, DEC-TED/SEC-DAEC/BCH,
    vectorized decoding, area/energy costs, the Pareto explorer sweep.
``repro.experiments``
    One driver per paper table and figure.
"""

from .codecs import (
    SweepSpec,
    assemble_pareto,
    get_codec,
    list_codecs,
    register_codec,
)
from .constants import NYC_FLUX_PER_CM2_HOUR, TNF_HALO_FLUX_PER_CM2_S
from .engine import (
    ExecutionContext,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    resolve_executor,
)
from .core import (
    CampaignAnalysis,
    FitEstimate,
    Table,
    TradeoffSeries,
    build_tradeoff_series,
    dynamic_cross_section,
    fit_rate,
    ser_fit_per_mbit,
)
from .harness import (
    BeamSession,
    Campaign,
    CampaignResult,
    SessionPlan,
    SessionResult,
    TABLE2_SESSION_PLANS,
    VminCharacterizer,
)
from .injection import BeamInjector, DirectInjector, OutcomeKind, OutcomeModel
from .resilient import (
    ChaosSpec,
    ResilientCampaign,
    SupervisedExecutor,
    SupervisionPolicy,
)
from .rng import RngStreams
from .telemetry import (
    MetricsRegistry,
    RunManifest,
    Telemetry,
    Tracer,
    console_summary,
)
from .soc import OperatingPoint, PowerModel, XGene2
from .validate import (
    ConformanceReport,
    DifferentialRunner,
    canonical_campaign_json,
    default_registry,
    run_suites,
)
from .workloads import SUITE_NAMES, make_suite, make_workload

__version__ = "1.0.0"

__all__ = [
    "NYC_FLUX_PER_CM2_HOUR",
    "TNF_HALO_FLUX_PER_CM2_S",
    "CampaignAnalysis",
    "FitEstimate",
    "Table",
    "TradeoffSeries",
    "build_tradeoff_series",
    "dynamic_cross_section",
    "fit_rate",
    "ser_fit_per_mbit",
    "ExecutionContext",
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "resolve_executor",
    "BeamSession",
    "Campaign",
    "CampaignResult",
    "SessionPlan",
    "SessionResult",
    "TABLE2_SESSION_PLANS",
    "VminCharacterizer",
    "BeamInjector",
    "DirectInjector",
    "OutcomeKind",
    "OutcomeModel",
    "ChaosSpec",
    "ResilientCampaign",
    "SupervisedExecutor",
    "SupervisionPolicy",
    "RngStreams",
    "MetricsRegistry",
    "RunManifest",
    "Telemetry",
    "Tracer",
    "console_summary",
    "OperatingPoint",
    "PowerModel",
    "XGene2",
    "SUITE_NAMES",
    "make_suite",
    "make_workload",
    "ConformanceReport",
    "DifferentialRunner",
    "canonical_campaign_json",
    "default_registry",
    "run_suites",
    "SweepSpec",
    "assemble_pareto",
    "get_codec",
    "list_codecs",
    "register_codec",
    "__version__",
]
