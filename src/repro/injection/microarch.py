"""Microarchitecture-level statistical fault injection.

Design implication #3 of the paper: the reported cache upset-rate
multipliers "can be used in microarchitecture-level fault injection
studies to estimate the application FIT rates of different
microprocessor designs at scaled supply voltage levels."  This module
is that consumer: a statistical fault-injection campaign over the
*core* structures (register file, ROB, load/store queue, ...), in the
style of [42]/[46], whose per-structure AVFs combine with the raw
technology FIT/bit and this library's voltage susceptibility
multipliers into chip FIT estimates at any studied voltage.

The statistical machinery follows Leveugle et al. [42]: the number of
injections needed for a target error margin at a confidence level is

    n = N / (1 + e^2 * (N - 1) / (z^2 * p * (1 - p)))

for population N (bits x cycles), margin e, and estimated proportion p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..constants import RAW_SRAM_XS_CM2_PER_BIT
from ..engine import ExecutionContext, Executor, SerialExecutor, WorkUnit
from ..errors import InjectionError
from ..injection.events import OutcomeKind
from ..rng import as_generator
from ..units import bits_to_mbit


@dataclass(frozen=True)
class CoreStructure:
    """One injectable core-logic structure.

    Attributes
    ----------
    name:
        Structure label, e.g. ``"int_rf"``.
    bits:
        Storage capacity in bits (per core).
    protected:
        Whether the structure carries parity/ECC.  Unprotected
        structures are the paper's suspected SDC source (Section 6.2).
    outcome_profile:
        Probability of each outcome given a raw fault -- the
        structure's derating/AVF vector.  Must sum to <= 1; the
        remainder is masked.
    """

    name: str
    bits: int
    protected: bool
    outcome_profile: Dict[OutcomeKind, float]

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise InjectionError(f"{self.name}: bits must be positive")
        total = sum(self.outcome_profile.values())
        if total > 1.0 + 1e-9:
            raise InjectionError(
                f"{self.name}: outcome probabilities sum to {total} > 1"
            )
        if any(p < 0 for p in self.outcome_profile.values()):
            raise InjectionError(f"{self.name}: negative outcome probability")

    @property
    def avf(self) -> float:
        """Architectural vulnerability: P(fault corrupts the output)."""
        return sum(self.outcome_profile.values())


#: A representative Armv8 out-of-order core's injectable structures,
#: sizes in the ballpark of a Cortex-A72-class design, with AVF vectors
#: in the range microarchitectural FI studies report ([18], [53]).
DEFAULT_CORE_STRUCTURES: List[CoreStructure] = [
    CoreStructure(
        name="int_rf",
        bits=160 * 64,
        protected=False,
        outcome_profile={
            OutcomeKind.SDC: 0.18,
            OutcomeKind.APP_CRASH: 0.07,
            OutcomeKind.SYS_CRASH: 0.02,
        },
    ),
    CoreStructure(
        name="fp_rf",
        bits=128 * 128,
        protected=False,
        outcome_profile={
            OutcomeKind.SDC: 0.22,
            OutcomeKind.APP_CRASH: 0.02,
            OutcomeKind.SYS_CRASH: 0.005,
        },
    ),
    CoreStructure(
        name="rob",
        bits=128 * 76,
        protected=False,
        outcome_profile={
            OutcomeKind.SDC: 0.06,
            OutcomeKind.APP_CRASH: 0.12,
            OutcomeKind.SYS_CRASH: 0.05,
        },
    ),
    CoreStructure(
        name="lsq",
        bits=64 * 96,
        protected=False,
        outcome_profile={
            OutcomeKind.SDC: 0.10,
            OutcomeKind.APP_CRASH: 0.09,
            OutcomeKind.SYS_CRASH: 0.03,
        },
    ),
    CoreStructure(
        name="issue_queue",
        bits=48 * 88,
        protected=False,
        outcome_profile={
            OutcomeKind.SDC: 0.05,
            OutcomeKind.APP_CRASH: 0.10,
            OutcomeKind.SYS_CRASH: 0.04,
        },
    ),
    CoreStructure(
        name="btb",
        bits=4096 * 48,
        protected=False,
        # Branch predictor state is performance-only: wrong predictions
        # are architecturally masked ([21] studied exactly this).
        outcome_profile={},
    ),
    CoreStructure(
        name="fetch_queue",
        bits=32 * 140,
        protected=False,
        outcome_profile={
            OutcomeKind.SDC: 0.03,
            OutcomeKind.APP_CRASH: 0.08,
            OutcomeKind.SYS_CRASH: 0.02,
        },
    ),
]


def required_injections(
    population: int,
    margin: float = 0.01,
    proportion: float = 0.5,
) -> int:
    """Sample size for a statistical FI campaign (Leveugle et al. [42]).

    Sized at 95 % confidence (z = 1.96).
    """
    if population <= 0:
        raise InjectionError("population must be positive")
    if not 0 < margin < 1:
        raise InjectionError("margin must be in (0, 1)")
    if not 0 < proportion < 1:
        raise InjectionError("proportion must be in (0, 1)")
    z2pq = 1.96 ** 2 * proportion * (1 - proportion)
    n = population / (1 + margin ** 2 * (population - 1) / z2pq)
    return int(math.ceil(n))


@dataclass
class FiCampaignResult:
    """Outcome histogram of one statistical FI campaign."""

    structure: str
    injections: int
    outcomes: Dict[OutcomeKind, int] = field(default_factory=dict)

    def fraction(self, kind: OutcomeKind) -> float:
        """Observed fraction of one outcome."""
        if self.injections <= 0:
            raise InjectionError("campaign has no injections")
        return self.outcomes.get(kind, 0) / self.injections

    @property
    def measured_avf(self) -> float:
        """Observed non-masked fraction."""
        return 1.0 - self.fraction(OutcomeKind.MASKED)


def _run_structure_campaign(
    structures: List[CoreStructure],
    cores: int,
    structure_name: str,
    injections: int,
    seed: int,
) -> FiCampaignResult:
    """Run one structure's FI campaign (module-level: must pickle)."""
    injector = MicroarchInjector(structures, cores=cores)
    rng = as_generator(seed, f"fi-{structure_name}")
    return injector.run_campaign(structure_name, injections, rng)


class MicroarchInjector:
    """Statistical fault injection over the core structures.

    Parameters
    ----------
    structures:
        Structures to target (defaults to the representative core).
    cores:
        Number of cores (the chip replicates each structure).
    """

    def __init__(
        self,
        structures: List[CoreStructure] = None,
        cores: int = 8,
    ) -> None:
        if cores < 1:
            raise InjectionError("need at least one core")
        self.structures = (
            list(structures) if structures is not None else list(DEFAULT_CORE_STRUCTURES)
        )
        if not self.structures:
            raise InjectionError("need at least one structure")
        self.cores = cores

    def structure(self, name: str) -> CoreStructure:
        """Look a structure up by name."""
        for s in self.structures:
            if s.name == name:
                return s
        raise InjectionError(f"no such structure: {name!r}")

    @property
    def total_bits(self) -> int:
        """Injectable bits over the whole chip."""
        return self.cores * sum(s.bits for s in self.structures)

    def run_campaign(
        self,
        structure_name: str,
        injections: int,
        rng: np.random.Generator,
    ) -> FiCampaignResult:
        """Inject *injections* uniform faults into one structure."""
        if injections <= 0:
            raise InjectionError("injection count must be positive")
        structure = self.structure(structure_name)
        kinds = list(structure.outcome_profile) + [OutcomeKind.MASKED]
        probs = list(structure.outcome_profile.values())
        probs.append(1.0 - sum(probs))
        draws = rng.choice(len(kinds), size=injections, p=probs)
        counts = np.bincount(draws, minlength=len(kinds))
        outcomes: Dict[OutcomeKind, int] = {
            kinds[idx]: int(count)
            for idx, count in enumerate(counts)
            if count
        }
        return FiCampaignResult(
            structure=structure_name,
            injections=injections,
            outcomes=outcomes,
        )

    def run_batch(
        self,
        injections_per_structure: int,
        context: Optional[ExecutionContext] = None,
        executor: Optional[Executor] = None,
    ) -> Dict[str, FiCampaignResult]:
        """One FI campaign per structure, fanned out through the engine.

        Every structure's stream is derived from the context seed and
        the structure name alone, so serial and parallel executors
        produce identical histograms.
        """
        if injections_per_structure <= 0:
            raise InjectionError("injection count must be positive")
        context = context or ExecutionContext()
        executor = executor or SerialExecutor()
        telemetry = context.telemetry
        names = [s.name for s in self.structures]
        units = [
            WorkUnit(
                key=f"fi-{name}",
                fn=_run_structure_campaign,
                args=(
                    self.structures,
                    self.cores,
                    name,
                    injections_per_structure,
                    context.derive_seed("microarch-fi", structure=name),
                ),
            )
            for name in names
        ]
        results = executor.map(units, telemetry=telemetry)
        if telemetry is not None:
            # Counted from the merged results on the submitting side,
            # so executor choice cannot change the totals.
            for result in results:
                telemetry.count("microarch.campaigns")
                telemetry.count("microarch.injections", result.injections)
                for kind, n in sorted(
                    result.outcomes.items(), key=lambda kv: kv[0].value
                ):
                    telemetry.count(
                        "microarch.outcomes", n, kind=kind.value
                    )
        return dict(zip(names, results))

    # -- FIT estimation (design implication #3) ---------------------------------

    def structure_fit(
        self,
        structure_name: str,
        kind: OutcomeKind,
        susceptibility_multiplier: float = 1.0,
        raw_fit_per_mbit: float = None,
    ) -> float:
        """Chip-level FIT contribution of one structure and outcome.

        FIT = cores x bits/Mbit x rawFIT/Mbit x P(outcome | fault)
                    x susceptibility_multiplier(V)
        """
        if susceptibility_multiplier < 0:
            raise InjectionError("multiplier must be nonnegative")
        structure = self.structure(structure_name)
        if raw_fit_per_mbit is None:
            # Raw SER implied by the 28 nm per-bit cross-section at NYC.
            raw_fit_per_mbit = (
                RAW_SRAM_XS_CM2_PER_BIT * 13.0 * 1e9 * 1e6
            )
        probability = structure.outcome_profile.get(kind, 0.0)
        return (
            self.cores
            * bits_to_mbit(structure.bits)
            * raw_fit_per_mbit
            * probability
            * susceptibility_multiplier
        )

    def chip_fit(
        self,
        kind: OutcomeKind,
        susceptibility_multiplier: float = 1.0,
        raw_fit_per_mbit: float = None,
    ) -> float:
        """Summed FIT over every structure for one outcome."""
        return sum(
            self.structure_fit(
                s.name, kind, susceptibility_multiplier, raw_fit_per_mbit
            )
            for s in self.structures
        )

    def sdc_fit_by_voltage(
        self,
        multipliers: Dict[int, float],
        raw_fit_per_mbit: float = None,
    ) -> Dict[int, float]:
        """SDC FIT estimates across voltage settings.

        Parameters
        ----------
        multipliers:
            Voltage (mV) -> susceptibility multiplier, e.g. produced
            from :class:`repro.injection.calibration.LevelRateModel`
            or the Fig. 10 series.
        """
        return {
            mv: self.chip_fit(OutcomeKind.SDC, multiplier, raw_fit_per_mbit)
            for mv, multiplier in multipliers.items()
        }
