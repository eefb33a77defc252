"""Energy model and reliability-constrained operating-point selection."""

import pytest

from repro.core.energy import (
    CandidatePoint,
    EnergyModel,
    OperatingPointSelector,
    candidates_from_paper_fit,
)
from repro.errors import AnalysisError
from repro.soc.dvfs import TABLE3_OPERATING_POINTS
from repro.soc.power import PowerModel

NOMINAL, SAFE, VMIN, LOWFREQ = TABLE3_OPERATING_POINTS


@pytest.fixture(scope="module")
def model():
    return EnergyModel(power_model=PowerModel.calibrated())


class TestRuntime:
    def test_reference_frequency_no_scaling(self, model):
        assert model.runtime_scale(2400) == pytest.approx(1.0)

    def test_lower_clock_stretches_runtime(self, model):
        assert model.runtime_scale(900) > 2.0

    def test_memory_bound_fraction_limits_stretch(self):
        bound = EnergyModel(
            power_model=PowerModel.calibrated(), compute_bound_fraction=0.0
        )
        assert bound.runtime_scale(300) == pytest.approx(1.0)

    def test_validation(self, model):
        with pytest.raises(AnalysisError):
            model.runtime_scale(0)
        with pytest.raises(AnalysisError):
            EnergyModel(
                power_model=PowerModel.calibrated(),
                compute_bound_fraction=1.5,
            )
        with pytest.raises(AnalysisError):
            model.runtime_s(0.0, NOMINAL)


class TestEnergy:
    def test_undervolting_at_fixed_clock_saves_energy(self, model):
        nominal = model.energy_joules(3.0, NOMINAL)
        safe = model.energy_joules(3.0, SAFE)
        vmin = model.energy_joules(3.0, VMIN)
        assert vmin < safe < nominal

    def test_low_frequency_point_energy_reflects_runtime_stretch(self, model):
        # 790 mV @ 900 MHz halves power but more than doubles compute
        # runtime, so per-work energy gains are smaller than Fig. 10's
        # raw power savings suggest.
        nominal = model.energy_joules(3.0, NOMINAL)
        low = model.energy_joules(3.0, LOWFREQ)
        power_savings = 1 - 10.59 / 20.40
        energy_savings = 1 - low / nominal
        assert energy_savings < power_savings


class TestSelector:
    @pytest.fixture(scope="class")
    def selector(self, model):
        return OperatingPointSelector(model)

    def test_tight_budget_picks_nominal(self, selector):
        # Only nominal satisfies an SDC budget of 3 FIT.
        choice = selector.select(candidates_from_paper_fit(), sdc_fit_budget=3.0)
        assert choice.point.label == "Nominal"

    def test_moderate_budget_picks_safe_with_performance(self, selector):
        # Design implication #2: with a 10-FIT budget, the Safe point
        # (930 mV) wins among full-speed settings.
        choice = selector.select(
            candidates_from_paper_fit(),
            sdc_fit_budget=10.0,
            preserve_performance=True,
        )
        assert choice.point.label == "Safe"

    def test_loose_budget_picks_vmin(self, selector):
        choice = selector.select(
            candidates_from_paper_fit(),
            sdc_fit_budget=100.0,
            preserve_performance=True,
        )
        assert choice.point.label == "Vmin"

    def test_total_budget_also_constrains(self, selector):
        choice = selector.select(
            candidates_from_paper_fit(),
            sdc_fit_budget=100.0,
            total_fit_budget=10.0,
            preserve_performance=True,
        )
        assert choice.point.label == "Safe"

    def test_infeasible_budget_rejected(self, selector):
        with pytest.raises(AnalysisError):
            selector.select(candidates_from_paper_fit(), sdc_fit_budget=0.1)

    def test_validation(self, model):
        with pytest.raises(AnalysisError):
            OperatingPointSelector(model, reference_runtime_s=0.0)
        with pytest.raises(AnalysisError):
            OperatingPointSelector(model).feasible(
                candidates_from_paper_fit(), sdc_fit_budget=0.0
            )
        with pytest.raises(AnalysisError):
            CandidatePoint(NOMINAL, sdc_fit=-1.0, total_fit=1.0)
