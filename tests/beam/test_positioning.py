"""DUT positioning model (center vs halo)."""

import numpy as np
import pytest

from repro.beam.positioning import BeamPosition, PositioningModel
from repro.errors import BeamError


class TestAttenuation:
    def test_center_has_no_attenuation(self):
        model = PositioningModel()
        assert model.attenuation(BeamPosition.CENTER) == 1.0

    def test_halo_attenuation_is_sixty_percent(self):
        model = PositioningModel()
        assert model.attenuation(BeamPosition.HALO) == pytest.approx(0.60)

    def test_center_sampling_deterministic(self, rng):
        model = PositioningModel()
        assert model.sample_attenuation(BeamPosition.CENTER, rng) == 1.0

    def test_halo_sampling_jitters_around_mean(self, rng):
        model = PositioningModel()
        samples = [
            model.sample_attenuation(BeamPosition.HALO, rng)
            for _ in range(2000)
        ]
        assert np.mean(samples) == pytest.approx(0.60, abs=0.01)
        assert np.std(samples) == pytest.approx(0.02, abs=0.005)

    def test_samples_clipped_to_unit_interval(self, rng):
        model = PositioningModel(halo_fraction=0.99, halo_fraction_sigma=0.5)
        samples = [
            model.sample_attenuation(BeamPosition.HALO, rng)
            for _ in range(200)
        ]
        assert all(0.0 <= s <= 1.0 for s in samples)


class TestValidation:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(BeamError):
            PositioningModel(halo_fraction=0.0)
        with pytest.raises(BeamError):
            PositioningModel(halo_fraction=1.5)
        with pytest.raises(BeamError):
            PositioningModel(halo_fraction_sigma=-0.1)
