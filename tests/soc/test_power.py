"""Calibrated power model."""

import pytest

from repro.errors import ConfigurationError
from repro.soc.power import BENCHMARK_ACTIVITY, PAPER_POWER_POINTS, PowerModel


@pytest.fixture(scope="module")
def model():
    return PowerModel.calibrated()


class TestCalibration:

    def test_matches_paper_values(self, model):
        for pmd, soc, freq, watts in PAPER_POWER_POINTS:
            assert model.total_watts(pmd, soc, freq) == pytest.approx(
                watts, abs=0.1
            )

    def test_coefficients_positive(self, model):
        assert model.a_pmd > 0
        assert model.a_soc > 0


class TestBehaviour:
    def test_power_monotone_in_voltage(self, model):
        watts = [model.total_watts(v, 950, 2400) for v in (980, 930, 920, 790)]
        assert watts == sorted(watts, reverse=True)

    def test_power_monotone_in_frequency(self, model):
        watts = [model.total_watts(980, 950, f) for f in (2400, 1800, 900)]
        assert watts == sorted(watts, reverse=True)

    def test_activity_scales_dynamic_power(self, model):
        base = model.total_watts(980, 950, 2400)
        hot = model.total_watts(980, 950, 2400, activity=1.1)
        assert hot > base

    def test_invalid_inputs_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.total_watts(0, 950, 2400)
        with pytest.raises(ConfigurationError):
            model.total_watts(980, 950, 2400, activity=0)


class TestActivityFactors:
    def test_all_benchmarks_present(self):
        assert set(BENCHMARK_ACTIVITY) == {"CG", "EP", "FT", "IS", "LU", "MG"}

    def test_factors_bracket_unity(self):
        values = list(BENCHMARK_ACTIVITY.values())
        assert min(values) < 1.0 < max(values)
        assert sum(values) / len(values) == pytest.approx(1.0, abs=0.02)
