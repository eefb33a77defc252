"""Microarchitectural statistical fault injection."""

import numpy as np
import pytest

from repro.errors import InjectionError
from repro.injection.events import OutcomeKind
from repro.injection.microarch import (
    DEFAULT_CORE_STRUCTURES,
    CoreStructure,
    MicroarchInjector,
    required_injections,
)


@pytest.fixture(scope="module")
def injector():
    return MicroarchInjector()


class TestCoreStructure:
    def test_avf_is_profile_sum(self):
        s = CoreStructure(
            name="x", bits=100, protected=False,
            outcome_profile={OutcomeKind.SDC: 0.1, OutcomeKind.APP_CRASH: 0.2},
        )
        assert s.avf == pytest.approx(0.3)

    def test_btb_fully_masked(self):
        btb = next(s for s in DEFAULT_CORE_STRUCTURES if s.name == "btb")
        assert btb.avf == 0.0

    def test_validation(self):
        with pytest.raises(InjectionError):
            CoreStructure(name="x", bits=0, protected=False, outcome_profile={})
        with pytest.raises(InjectionError):
            CoreStructure(
                name="x", bits=10, protected=False,
                outcome_profile={OutcomeKind.SDC: 1.2},
            )
        with pytest.raises(InjectionError):
            CoreStructure(
                name="x", bits=10, protected=False,
                outcome_profile={OutcomeKind.SDC: -0.1},
            )


class TestSampleSize:
    def test_known_value(self):
        # Classic statistical-FI result: ~9,600 injections suffice for
        # 1% margin at 95% confidence regardless of population size.
        n = required_injections(10**9, margin=0.01)
        assert 9000 < n < 10000

    def test_small_population_capped(self):
        assert required_injections(100, margin=0.01) <= 100

    def test_validation(self):
        with pytest.raises(InjectionError):
            required_injections(0)
        with pytest.raises(InjectionError):
            required_injections(100, margin=0.0)
        with pytest.raises(InjectionError):
            required_injections(100, proportion=1.0)


class TestCampaign:
    def test_outcomes_sum_to_injections(self, injector):
        rng = np.random.default_rng(0)
        result = injector.run_campaign("int_rf", 2000, rng)
        assert sum(result.outcomes.values()) == 2000

    def test_measured_avf_matches_profile(self, injector):
        rng = np.random.default_rng(1)
        n = required_injections(10**9, margin=0.02)
        result = injector.run_campaign("int_rf", n, rng)
        profile_avf = injector.structure("int_rf").avf
        assert result.measured_avf == pytest.approx(profile_avf, abs=0.02)

    def test_btb_campaign_all_masked(self, injector):
        rng = np.random.default_rng(2)
        result = injector.run_campaign("btb", 500, rng)
        assert result.fraction(OutcomeKind.MASKED) == 1.0

    def test_unknown_structure_rejected(self, injector, rng):
        with pytest.raises(InjectionError):
            injector.run_campaign("l4_cache", 10, rng)

    def test_zero_injections_rejected(self, injector, rng):
        with pytest.raises(InjectionError):
            injector.run_campaign("int_rf", 0, rng)


class TestFitEstimation:
    def test_fit_scales_with_multiplier(self, injector):
        base = injector.structure_fit("int_rf", OutcomeKind.SDC, 1.0)
        scaled = injector.structure_fit("int_rf", OutcomeKind.SDC, 1.5)
        assert scaled == pytest.approx(1.5 * base)

    def test_chip_fit_sums_structures(self, injector):
        total = injector.chip_fit(OutcomeKind.SDC)
        parts = sum(
            injector.structure_fit(s.name, OutcomeKind.SDC)
            for s in injector.structures
        )
        assert total == pytest.approx(parts)

    def test_btb_contributes_nothing(self, injector):
        assert injector.structure_fit("btb", OutcomeKind.SDC) == 0.0

    def test_sdc_fit_by_voltage_ordering(self, injector):
        fits = injector.sdc_fit_by_voltage({980: 1.0, 930: 1.07, 920: 1.11})
        assert fits[980] < fits[930] < fits[920]

    def test_magnitude_plausible(self, injector):
        # Unprotected core state is tiny next to the caches, so its SDC
        # FIT should be in the units range -- the same ballpark as the
        # paper's nominal-voltage SDC FIT (2.54).
        fit = injector.chip_fit(OutcomeKind.SDC)
        assert 0.1 < fit < 20.0

    def test_negative_multiplier_rejected(self, injector):
        with pytest.raises(InjectionError):
            injector.structure_fit("int_rf", OutcomeKind.SDC, -1.0)


class TestConstruction:
    def test_total_bits(self, injector):
        per_core = sum(s.bits for s in DEFAULT_CORE_STRUCTURES)
        assert injector.total_bits == 8 * per_core

    def test_validation(self):
        with pytest.raises(InjectionError):
            MicroarchInjector(cores=0)
        with pytest.raises(InjectionError):
            MicroarchInjector(structures=[])
