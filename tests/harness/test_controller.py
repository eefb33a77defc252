"""Control-PC run orchestration."""

import numpy as np
import pytest

from repro.harness.controller import ControlPC
from repro.injection.calibration import OutcomeMixModel
from repro.injection.events import OutcomeKind
from repro.injection.injector import BeamInjector
from repro.injection.propagation import OutcomeModel
from repro.soc.dvfs import TABLE3_OPERATING_POINTS
from repro.soc.xgene2 import XGene2


def make_controller(chip=None, **kwargs):
    chip = chip or XGene2()
    return chip, ControlPC(chip, BeamInjector(chip), **kwargs)


class TestRunBenchmark:
    def test_single_run_outcome_placed(self):
        chip, controller = make_controller()
        rng = np.random.default_rng(0)
        outcome = controller.run_benchmark("CG", 600.0, 10.0, rng)
        assert outcome.upsets.duration_s == 600.0
        # Every event lands inside the run's window of the session.
        times = [u.time_s for u in outcome.upsets.upsets]
        times += [f.time_s for f in outcome.failures]
        assert times and all(10.0 <= t < 610.0 for t in times)

    def test_clean_run_has_no_verdict(self):
        chip, controller = make_controller()
        rng = np.random.default_rng(0)
        outcome = controller.run_benchmark("CG", 0.5, 0.0, rng)
        assert outcome.failures == []
        assert outcome.verdict is None

    def test_quiet_run_draws_and_polls_nothing(self):
        chip, controller = make_controller()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        outcome = controller.run_benchmark("MG", 3.4, 6.0, rng, quiet=True)
        assert rng.bit_generator.state == state
        # Nothing struck, nothing failed: nothing comes back to keep.
        assert outcome is None
        assert len(controller.session_edac) == 0

    def test_session_edac_survives_power_cycle(self):
        chip, controller = make_controller()
        rng = np.random.default_rng(1)
        # Accumulate over many short runs so some upsets land; crashes
        # occasionally power-cycle the chip and clear its own log.
        total = 0
        clock = 0.0
        for _ in range(800):
            outcome = controller.run_benchmark("MG", 60.0, clock, rng)
            total += outcome.upsets.total_upsets
            clock += 60.0
        assert total > 0
        assert len(controller.session_edac) == total

    def test_syscrash_power_cycles_chip(self):
        chip, controller = make_controller()
        chip.apply_operating_point(TABLE3_OPERATING_POINTS[0])
        # A pending flip only a power cycle clears.
        chip.array("soc.l3").inject_bit_flip(0, 0)
        rng = np.random.default_rng(2)
        # Run until a SysCrash happens.
        clock = 0.0
        crashed = False
        for _ in range(2000):
            outcome = controller.run_benchmark("CG", 120.0, clock, rng)
            clock += 120.0
            if outcome.verdict is OutcomeKind.SYS_CRASH:
                crashed = True
                break
        assert crashed
        assert list(chip.array("soc.l3").scrub()) == []  # SRAM cleared
        assert len(chip.edac) == 0  # chip-side log wiped
        assert chip.slimpro.poll_health() == []


class TestVerdict:
    def test_verdict_priority(self):
        from repro.harness.controller import RunOutcome
        from repro.injection.events import FailureEvent
        from repro.injection.injector import InjectionSummary

        failures = [
            FailureEvent(time_s=1.0, benchmark="CG", kind=OutcomeKind.SDC),
            FailureEvent(time_s=2.0, benchmark="CG", kind=OutcomeKind.SYS_CRASH),
        ]
        outcome = RunOutcome(failures=failures, upsets=InjectionSummary())
        assert outcome.verdict is OutcomeKind.SYS_CRASH

    def test_verdict_none_when_clean(self):
        from repro.harness.controller import RunOutcome
        from repro.injection.injector import InjectionSummary

        outcome = RunOutcome(failures=[], upsets=InjectionSummary())
        assert outcome.verdict is None
