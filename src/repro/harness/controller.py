"""The Control-PC: run orchestration, failure detection, recovery.

Mirrors the experimental setup of Fig. 3 / Section 3.6: the Control-PC
in the control room starts benchmark executions on the irradiated
board, compares outputs against pre-computed golden references (SDC
detection), watches response timeouts (crash detection: if the board
answers after an application restart it was an *application* crash; if
it stays unreachable it was a *system* crash and the board is
power-cycled), and logs everything.
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
from .logbook import Logbook


@dataclass(frozen=True)
class RunOutcome:
    """Result of one benchmark execution under beam.

    Attributes
    ----------
    benchmark:
        Benchmark executed.
    start_s / duration_s:
        Wall-clock placement of the run within the session.
    failures:
        Software-level failure events raised during the run.
    upsets:
        SRAM upset summary for the run's exposure.
    """

    benchmark: str
    start_s: float
    duration_s: float
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

    #: How long the Control-PC waits before declaring a crash (s).
    RESPONSE_TIMEOUT_S = 30.0

    def __init__(
        self,
        chip: XGene2,
        injector: BeamInjector,
        outcome_model: OutcomeModel = None,
    ) -> None:
        self.chip = chip
        self.injector = injector
        self.outcome_model = outcome_model or OutcomeModel()
        self.logbook = Logbook()
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
    ) -> RunOutcome:
        """Execute one benchmark run under beam and classify its outcome."""
        self.logbook.record(start_s, "run", f"start ({duration_s:.1f}s)", benchmark)
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
        self._handle_failures(benchmark, start_s, duration_s, failures)
        if not failures:
            self.logbook.record(
                start_s + duration_s, "ok", "output matches golden", benchmark
            )
        return RunOutcome(
            benchmark=benchmark,
            start_s=start_s,
            duration_s=duration_s,
            failures=failures,
            upsets=upsets,
        )

    def _handle_failures(
        self,
        benchmark: str,
        start_s: float,
        duration_s: float,
        failures: List[FailureEvent],
    ) -> None:
        """Log detections and recoveries; power-cycle on a SysCrash."""
        end_s = start_s + duration_s
        for failure in failures:
            if failure.kind is OutcomeKind.SDC:
                note = (
                    "output mismatch with corrected-error notification"
                    if failure.hw_notified
                    else "output mismatch, no hardware indication"
                )
                self.logbook.record(end_s, "sdc", note, benchmark)
            elif failure.kind is OutcomeKind.APP_CRASH:
                self.logbook.record(
                    failure.time_s + self.RESPONSE_TIMEOUT_S,
                    "appcrash",
                    "response timeout; restart succeeded (Linux alive)",
                    benchmark,
                )
                self.logbook.record(
                    failure.time_s + self.RESPONSE_TIMEOUT_S,
                    "reset",
                    "application restarted",
                    benchmark,
                )
            else:  # SYS_CRASH
                self.logbook.record(
                    failure.time_s + self.RESPONSE_TIMEOUT_S,
                    "syscrash",
                    "board unreachable; power cycling",
                    benchmark,
                )
                self.logbook.record(
                    failure.time_s + self.RESPONSE_TIMEOUT_S,
                    "powercycle",
                    "board power cycled and rebooted",
                    benchmark,
                )
                self.chip.power_cycle()
