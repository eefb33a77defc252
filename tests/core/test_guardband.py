"""Chip-population guardband analytics."""

import numpy as np
import pytest
from scipy import stats

from repro.core.guardband import VminPopulation, per_chip_advantage_mv
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def population():
    return VminPopulation(mean_mv=917.0, sigma_mv=12.0)


class TestViolationProbability:
    def test_monotone_decreasing_in_voltage(self, population):
        probs = [population.violation_probability(v) for v in (980, 950, 930, 917)]
        assert probs == sorted(probs)

    def test_mean_voltage_half_violations(self, population):
        assert population.violation_probability(917.0) == pytest.approx(0.5)

    def test_nominal_essentially_safe(self, population):
        assert population.violation_probability(980.0) < 1e-6


class TestFleetVoltage:
    def test_fleet_voltage_on_grid_and_safe(self, population):
        v = population.fleet_safe_voltage_mv(violation_target=1e-4)
        assert v % 5 == 0
        assert population.violation_probability(v) <= 1e-4

    def test_stricter_target_raises_voltage(self, population):
        lax = population.fleet_safe_voltage_mv(violation_target=1e-2)
        strict = population.fleet_safe_voltage_mv(violation_target=1e-6)
        assert strict > lax

    def test_capped_at_nominal(self):
        wide = VminPopulation(mean_mv=970.0, sigma_mv=30.0)
        assert wide.fleet_safe_voltage_mv(1e-9) <= 980

    def test_target_validation(self, population):
        with pytest.raises(AnalysisError):
            population.fleet_safe_voltage_mv(violation_target=0.0)


class TestMatchesScipyStats:
    """The normal tail calls equal ``scipy.stats.norm``'s, bit for bit."""

    POPULATIONS = [
        VminPopulation(mean_mv=mean, sigma_mv=sigma)
        for mean in (900.0, 917.0, 931.3, 970.0)
        for sigma in (0.7, 5.0, 12.0, 30.0)
    ]

    def test_violation_probability(self):
        voltages = np.linspace(700.0, 1_100.0, 4_001)
        for pop in self.POPULATIONS:
            z = (voltages - pop.mean_mv) / pop.sigma_mv
            got = [pop.violation_probability(v) for v in voltages.tolist()]
            assert got == stats.norm.sf(z).tolist()

    def test_fleet_safe_voltage(self):
        targets = np.r_[
            np.geomspace(1e-300, 0.5, 1_500), np.linspace(0.5, 1.0, 502)[1:-1]
        ]
        for pop in self.POPULATIONS:
            quantiles = pop.mean_mv + pop.sigma_mv * stats.norm.isf(targets)
            for step in (1, 5):
                expected = [
                    min(int(-(-q // step) * step), int(pop.nominal_mv))
                    for q in quantiles
                ]
                got = [
                    pop.fleet_safe_voltage_mv(t, step) for t in targets.tolist()
                ]
                assert got == expected


class TestGuardbandRecovery:
    def test_per_chip_beats_fleetwide(self, population):
        rng = np.random.default_rng(0)
        fleet = population.guardband_recovered_fleetwide(1e-4)
        per_chip = population.guardband_recovered_per_chip(20_000, rng)
        assert per_chip > fleet

    def test_margin_reduces_recovery(self, population):
        no_margin = population.guardband_recovered_fleetwide(1e-4)
        with_margin = population.guardband_recovered_fleetwide(1e-4, margin_mv=10)
        assert with_margin < no_margin

    def test_advantage_positive_and_scales_with_sigma(self):
        tight = VminPopulation(mean_mv=917.0, sigma_mv=5.0)
        loose = VminPopulation(mean_mv=917.0, sigma_mv=20.0)
        assert 0 < per_chip_advantage_mv(tight) < per_chip_advantage_mv(loose)


class TestSampling:
    def test_samples_capped_at_nominal(self, population):
        rng = np.random.default_rng(1)
        chips = population.sample_chips(5000, rng)
        assert np.all(chips <= 980.0)
        assert chips.mean() == pytest.approx(917.0, abs=1.0)

    def test_validation(self, population, rng):
        with pytest.raises(AnalysisError):
            population.sample_chips(0, rng)
        with pytest.raises(AnalysisError):
            VminPopulation(sigma_mv=0.0)
        with pytest.raises(AnalysisError):
            VminPopulation(mean_mv=990.0)
