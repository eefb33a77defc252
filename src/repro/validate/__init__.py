"""repro.validate: paper-conformance oracles, statistical gates, and
differential testing.

Public surface:

* :mod:`~repro.validate.gates` -- :class:`GateResult`, Poisson /
  proportion / dispersion gates, and the pooled :class:`SeedLadder`;
* :mod:`~repro.validate.oracles` -- the golden-value registry loaded
  from ``validate/golden/*.json``;
* :mod:`~repro.validate.differential` -- paired-configuration
  agreement checks and the canonical campaign serialization;
* :mod:`~repro.validate.conformance` -- the three suites behind
  ``repro-campaign validate``;
* :mod:`~repro.validate.postjob` -- the automatic per-submission gates
  behind ``repro-campaign serve --validate``.
"""

from .conformance import (
    SUITES,
    ConformanceReport,
    SuiteResult,
    run_conformance,
    run_differential,
    run_statistical,
    run_suites,
)
from .differential import (
    DifferentialRunner,
    DiffReport,
    FieldDiff,
    canonical_campaign_json,
    diff_encoded,
)
from .gates import (
    DEFAULT_ALPHA,
    DEFAULT_EPSILON,
    GateResult,
    SeedLadder,
    interval_coverage_gate,
    poisson_bounds,
    poisson_count_gate,
    poisson_dispersion_gate,
    poisson_pair_gate,
    proportion_gate,
)
from .oracles import (
    ArtifactOracles,
    Oracle,
    OracleRegistry,
    Tolerance,
    default_registry,
)
from .postjob import postjob_gates, postjob_report

__all__ = [
    "SUITES",
    "ConformanceReport",
    "SuiteResult",
    "run_conformance",
    "run_differential",
    "run_statistical",
    "run_suites",
    "DifferentialRunner",
    "DiffReport",
    "FieldDiff",
    "canonical_campaign_json",
    "diff_encoded",
    "DEFAULT_ALPHA",
    "DEFAULT_EPSILON",
    "GateResult",
    "SeedLadder",
    "interval_coverage_gate",
    "poisson_bounds",
    "poisson_count_gate",
    "poisson_dispersion_gate",
    "poisson_pair_gate",
    "proportion_gate",
    "ArtifactOracles",
    "Oracle",
    "OracleRegistry",
    "Tolerance",
    "default_registry",
    "postjob_gates",
    "postjob_report",
]
