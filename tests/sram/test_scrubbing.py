"""Scrubbing policy model."""

import pytest

from repro.errors import ConfigurationError
from repro.sram.scrubbing import ScrubbingModel, model_from_level_rate


@pytest.fixture
def model():
    # An L3-like array under an accelerated environment.
    return ScrubbingModel(
        words=1_048_576,
        word_upset_rate_per_s=1.2e-8,
        mbu_due_rate_per_s=6.0e-4,
        scrub_energy_j=0.05,
    )


class TestAccumulation:
    def test_double_hit_probability_small_and_quadratic(self, model):
        p1 = model.word_double_hit_probability(10.0)
        p2 = model.word_double_hit_probability(20.0)
        assert 0 < p1 < 1e-10
        assert p2 == pytest.approx(4 * p1, rel=0.01)  # ~ (lam T)^2 / 2

    def test_zero_interval_zero_probability(self, model):
        assert model.word_double_hit_probability(0.0) == 0.0

    def test_accumulated_rate_linear_in_interval(self, model):
        r1 = model.accumulated_due_rate_per_s(100.0)
        r2 = model.accumulated_due_rate_per_s(200.0)
        assert r2 == pytest.approx(2 * r1, rel=0.01)


class TestFactory:
    def test_from_level_rate_splits_sbu_mbu(self):
        model = model_from_level_rate(
            words=1_048_576, level_rate_per_min=0.803, mbu_fraction=0.047
        )
        total_per_s = 0.803 / 60.0
        assert model.mbu_due_rate_per_s == pytest.approx(total_per_s * 0.047)
        assert model.word_upset_rate_per_s * model.words == pytest.approx(
            total_per_s * (1 - 0.047)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            model_from_level_rate(words=0, level_rate_per_min=1.0)
        with pytest.raises(ConfigurationError):
            model_from_level_rate(words=10, level_rate_per_min=-1.0)
        with pytest.raises(ConfigurationError):
            model_from_level_rate(
                words=10, level_rate_per_min=1.0, mbu_fraction=1.0
            )
        with pytest.raises(ConfigurationError):
            ScrubbingModel(
                words=10, word_upset_rate_per_s=1e-9
            ).accumulated_due_rate_per_s(0.0)
