"""PDN droop model."""

import pytest

from repro.errors import ConfigurationError
from repro.harness.viruses import make_viruses
from repro.soc.regulator import (
    LOAD_PROFILES,
    LoadProfile,
    PowerDeliveryNetwork,
    droop_penalty_mv,
)


@pytest.fixture(scope="module")
def pdn():
    return PowerDeliveryNetwork()


class TestDroopComponents:
    def test_droop_is_sum_of_components(self, pdn):
        step = 5.0
        assert pdn.droop_mv(step) == pytest.approx(
            pdn.ir_drop_mv(step) + pdn.didt_kick_mv(step)
        )

    def test_droop_linear_in_step(self, pdn):
        assert pdn.droop_mv(10.0) == pytest.approx(2 * pdn.droop_mv(5.0))

    def test_faster_step_kicks_harder(self):
        slow = PowerDeliveryNetwork(response_time_ns=10.0)
        fast = PowerDeliveryNetwork(response_time_ns=1.0)
        assert fast.didt_kick_mv(5.0) > slow.didt_kick_mv(5.0)

    def test_validation(self, pdn):
        with pytest.raises(ConfigurationError):
            PowerDeliveryNetwork(resistance_mohm=0.0)
        with pytest.raises(ConfigurationError):
            pdn.droop_mv(-1.0)


class TestProfiles:
    def test_power_virus_steps_hardest(self):
        assert (
            LOAD_PROFILES["power-virus"].step_current_a
            > LOAD_PROFILES["cache-thrash"].step_current_a
            > LOAD_PROFILES["benchmark-average"].step_current_a
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadProfile("x", baseline_current_a=-1.0, step_current_a=1.0)


class TestPenaltyDerivation:
    def test_viruses_penalize_over_benchmarks(self, pdn):
        for name in ("power-virus", "cache-thrash", "bus-toggle"):
            assert droop_penalty_mv(LOAD_PROFILES[name], pdn) > 0

    def test_benchmark_average_zero_penalty(self, pdn):
        assert droop_penalty_mv(LOAD_PROFILES["benchmark-average"], pdn) == 0.0

    def test_derived_penalties_match_virus_calibration(self, pdn):
        # The viruses' carried droop penalties (15/10/8 mV) should come
        # out of the electrical model within a factor-ish tolerance --
        # the physical closure of the virus calibration.
        for virus in make_viruses():
            derived = droop_penalty_mv(
                LOAD_PROFILES[virus.signature.name], pdn
            )
            carried = virus.signature.droop_penalty_mv
            assert derived == pytest.approx(carried, rel=0.5)

    def test_penalty_ordering_matches_virus_ordering(self, pdn):
        derived = {
            name: droop_penalty_mv(LOAD_PROFILES[name], pdn)
            for name in ("power-virus", "cache-thrash", "bus-toggle")
        }
        assert (
            derived["power-virus"]
            > derived["cache-thrash"]
            > derived["bus-toggle"]
        )
