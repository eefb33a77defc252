"""The Control-PC: run orchestration, failure detection, recovery.

Mirrors the experimental setup of Fig. 3 / Section 3.6: the Control-PC
in the control room starts benchmark executions on the irradiated
board, compares outputs against pre-computed golden references (SDC
detection) and watches response timeouts (crash detection: if the
board answers after an application restart it was an *application*
crash; if it stays unreachable it was a *system* crash and the board is
power-cycled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..constants import TNF_HALO_FLUX_PER_CM2_S
from ..injection.events import FailureEvent, OutcomeKind
from ..injection.injector import BeamInjector, InjectionSummary
from ..injection.propagation import OutcomeModel
from ..soc.edac import EdacLog
from ..soc.xgene2 import XGene2


@dataclass(frozen=True)
class RunOutcome:
    """Result of one benchmark execution under beam.

    Attributes
    ----------
    failures:
        Software-level failure events raised during the run.
    upsets:
        SRAM upset summary for the run's exposure.

    Its benchmark and placement are its session's
    :func:`~repro.harness.session.run_schedule` entry.
    """

    failures: List[FailureEvent]
    upsets: InjectionSummary

    @property
    def verdict(self) -> Optional[OutcomeKind]:
        """The run's dominant failure (SysCrash > AppCrash > SDC), or None."""
        order = [OutcomeKind.SYS_CRASH, OutcomeKind.APP_CRASH, OutcomeKind.SDC]
        for kind in order:
            if any(f.kind is kind for f in self.failures):
                return kind
        return None


class ControlPC:
    """Drives benchmark runs on an irradiated chip and classifies failures.

    Parameters
    ----------
    chip:
        The DUT.
    injector:
        Beam upset injector bound to the chip.
    outcome_model:
        Software-failure sampler.

    Recovery (an application restart, a power cycle) takes no beam
    time: session rates follow the paper's time accounting, and Table 2
    normalizes by beam minutes.
    """

    def __init__(
        self,
        chip: XGene2,
        injector: BeamInjector,
        outcome_model: OutcomeModel = None,
    ) -> None:
        self.chip = chip
        self.injector = injector
        self.outcome_model = outcome_model or OutcomeModel()
        #: Session-cumulative EDAC log: the chip's own log is lost on a
        #: power cycle, so the Control-PC archives every SLIMpro health
        #: poll here (the paper's dmesg captures play the same role).
        self.session_edac = EdacLog()

    def run_benchmark(
        self,
        benchmark: str,
        duration_s: float,
        start_s: float,
        rng: np.random.Generator,
        flux_per_cm2_s: float = TNF_HALO_FLUX_PER_CM2_S,
        quiet: bool = False,
    ) -> Optional[RunOutcome]:
        """Execute one benchmark run under beam and classify its outcome.

        A *quiet* run is one whose Poisson counts the session already
        drew as all zero: it strikes nothing and fails nothing, so it
        draws nothing here, leaves the EDAC log unpolled and returns
        None.
        """
        if quiet:
            return None
        point = self.chip.operating_point()
        upsets = self.injector.expose(
            duration_s,
            rng,
            benchmark=benchmark,
            flux_per_cm2_s=flux_per_cm2_s,
            time_offset_s=start_s,
        )
        failures = self.outcome_model.sample_failures(
            point,
            duration_s,
            benchmark,
            rng,
            flux_per_cm2_s=flux_per_cm2_s,
            time_offset_s=start_s,
        )
        # Archive fresh EDAC notifications before any power cycle can
        # wipe the chip-side log.
        for record in self.chip.slimpro.poll_health():
            self.session_edac.log(record)
        for failure in failures:
            if failure.kind is OutcomeKind.SYS_CRASH:
                # The board stays unreachable: power-cycle it.
                self.chip.power_cycle()
        return RunOutcome(failures=failures, upsets=upsets)
