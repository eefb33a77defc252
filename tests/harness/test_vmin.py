"""Vmin characterization harness."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.harness.vmin import (
    PFAIL_MODELS,
    PfailModel,
    VminCharacterizer,
    characterize_all,
)


class TestPfailModel:
    def test_monotone_decreasing_in_voltage(self):
        model = PFAIL_MODELS[2400]
        probs = [model.pfail(v) for v in (980, 930, 920, 910, 900)]
        assert probs == sorted(probs)

    def test_half_point(self):
        model = PfailModel(freq_mhz=2400, v50_mv=910.0, width_mv=1.1)
        assert model.pfail(910.0) == pytest.approx(0.5)

    def test_safe_at_vmin_certain_below(self):
        model = PFAIL_MODELS[2400]
        assert model.pfail(920) < 1e-3
        assert model.pfail(900) > 0.99

    def test_lower_frequency_curve_sits_lower(self):
        assert PFAIL_MODELS[900].v50_mv < PFAIL_MODELS[2400].v50_mv - 100

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError):
            PfailModel(freq_mhz=2400, v50_mv=910, width_mv=0)


class TestCharacterizer:
    def test_finds_paper_vmins(self):
        results = characterize_all(seed=0)
        assert results[2400].safe_vmin_mv == 920
        assert results[900].safe_vmin_mv == 790

    def test_guardbands(self):
        results = characterize_all(seed=0)
        assert results[2400].guardband_mv() == 60
        assert results[900].guardband_mv() == 190

    def test_curve_reaches_full_failure(self):
        result = VminCharacterizer(PFAIL_MODELS[2400], 200).characterize(seed=3)
        assert max(result.pfail_curve.values()) == 1.0

    def test_curve_on_regulator_grid(self):
        result = VminCharacterizer(PFAIL_MODELS[2400], 100).characterize(seed=3)
        assert all(v % 5 == 0 for v in result.pfail_curve)

    def test_sweep_stops_after_full_failure(self):
        result = VminCharacterizer(PFAIL_MODELS[2400], 100).characterize(seed=3)
        lowest = min(result.pfail_curve)
        assert lowest > 700  # did not walk all the way to stop_mv

    def test_measure_pfail_statistics(self):
        model = PfailModel(freq_mhz=2400, v50_mv=910, width_mv=1.1)
        char = VminCharacterizer(model, runs_per_voltage=2000)
        rng = np.random.default_rng(1)
        measured = char.measure_pfail(910, rng)
        assert measured == pytest.approx(0.5, abs=0.05)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VminCharacterizer(PFAIL_MODELS[2400], runs_per_voltage=0)
        with pytest.raises(ConfigurationError):
            VminCharacterizer(PFAIL_MODELS[2400]).characterize(
                start_mv=700, stop_mv=800
            )

    def test_deterministic_given_seed(self):
        a = VminCharacterizer(PFAIL_MODELS[900], 100).characterize(seed=9)
        b = VminCharacterizer(PFAIL_MODELS[900], 100).characterize(seed=9)
        assert a.pfail_curve == b.pfail_curve
        assert a.safe_vmin_mv == b.safe_vmin_mv
