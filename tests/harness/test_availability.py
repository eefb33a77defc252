"""Checkpoint economics and availability."""

import math

import pytest

from repro.errors import AnalysisError
from repro.harness.availability import (
    CheckpointModel,
    UndervoltingVerdict,
    undervolting_verdict,
)

#: Crash FITs from Fig. 11 (AppCrash + SysCrash).
NOMINAL_CRASH_FIT = 1.49 + 4.29
VMIN_CRASH_FIT = 0.96 + 2.55


class TestMtbf:
    def test_nyc_ground_level_mtbf_enormous(self):
        mtbf = CheckpointModel.mtbf_hours(NOMINAL_CRASH_FIT)
        assert mtbf > 1e8  # ~2e4 years

    def test_environment_scaling(self):
        ground = CheckpointModel.mtbf_hours(NOMINAL_CRASH_FIT, 1.0)
        flight = CheckpointModel.mtbf_hours(NOMINAL_CRASH_FIT, 300.0)
        assert flight == pytest.approx(ground / 300.0)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            CheckpointModel.mtbf_hours(0.0)
        with pytest.raises(AnalysisError):
            CheckpointModel.mtbf_hours(1.0, environment_factor=0.0)


class TestCheckpointing:
    def test_youngs_interval_formula(self):
        model = CheckpointModel(checkpoint_cost_s=30.0)
        mtbf_h = 100.0
        tau = model.optimal_interval_s(mtbf_h)
        assert tau == pytest.approx(math.sqrt(2 * 30.0 * 100.0 * 3600.0))

    def test_overhead_small_at_ground_level(self):
        model = CheckpointModel()
        mtbf = CheckpointModel.mtbf_hours(NOMINAL_CRASH_FIT, 1.0)
        assert model.overhead_fraction(mtbf) < 1e-3

    def test_overhead_grows_with_flux(self):
        model = CheckpointModel()
        overheads = [
            model.overhead_fraction(
                CheckpointModel.mtbf_hours(NOMINAL_CRASH_FIT, env)
            )
            for env in (1.0, 300.0, 1e6)
        ]
        assert overheads == sorted(overheads)

    def test_slowdown_is_one_plus_overhead(self):
        model = CheckpointModel()
        mtbf = 1000.0
        assert model.effective_slowdown(mtbf) == pytest.approx(
            1.0 + model.overhead_fraction(mtbf)
        )

    def test_validation(self):
        with pytest.raises(AnalysisError):
            CheckpointModel(checkpoint_cost_s=0.0)
        with pytest.raises(AnalysisError):
            CheckpointModel().optimal_interval_s(0.0)


class TestVerdict:
    def test_ground_level_undervolting_pays_off(self):
        verdict = undervolting_verdict(
            nominal_power_w=20.40,
            nominal_crash_fit=NOMINAL_CRASH_FIT,
            undervolted_power_w=18.15,
            undervolted_crash_fit=VMIN_CRASH_FIT,
            checkpointing=CheckpointModel(),
            environment_factor=1.0,
        )
        assert verdict.pays_off
        assert verdict.net_savings_fraction == pytest.approx(
            verdict.raw_savings_fraction, abs=1e-3
        )

    def test_extreme_flux_with_worse_crash_rate_can_negate_savings(self):
        # Hypothetical chip whose crashes *rise* steeply when undervolted,
        # operated near the beam: recovery rework eats the savings.
        verdict = undervolting_verdict(
            nominal_power_w=20.40,
            nominal_crash_fit=NOMINAL_CRASH_FIT,
            undervolted_power_w=18.15,
            undervolted_crash_fit=NOMINAL_CRASH_FIT * 400,
            checkpointing=CheckpointModel(),
            environment_factor=2e6,
        )
        assert verdict.net_savings_fraction < verdict.raw_savings_fraction
        assert not verdict.pays_off

    def test_measured_crash_rates_make_undervolting_win_everywhere(self):
        # The paper measured crash FIT *falling* with undervolt at fixed
        # clock -- so the verdict improves with flux, not worsens.
        ground = undervolting_verdict(
            20.40, NOMINAL_CRASH_FIT, 18.15, VMIN_CRASH_FIT,
            CheckpointModel(), 1.0,
        )
        beam = undervolting_verdict(
            20.40, NOMINAL_CRASH_FIT, 18.15, VMIN_CRASH_FIT,
            CheckpointModel(), 1e7,
        )
        assert beam.net_savings_fraction >= ground.net_savings_fraction

    def test_validation(self):
        with pytest.raises(AnalysisError):
            undervolting_verdict(
                0.0, 1.0, 1.0, 1.0, CheckpointModel(), 1.0
            )
