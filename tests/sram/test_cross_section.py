"""Per-bit cross-section model and its calibration helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sram.cross_section import (
    CrossSectionModel,
    fit_voltage_slope,
)


class TestCrossSectionModel:
    def test_nominal_multiplier_is_one(self):
        model = CrossSectionModel()
        assert model.multiplier(980) == pytest.approx(1.0)

    def test_sigma_grows_below_nominal(self):
        model = CrossSectionModel()
        assert model.sigma_cm2(920) > model.sigma_cm2(930) > model.sigma_cm2(980)

    def test_sigma_shrinks_above_nominal(self):
        model = CrossSectionModel(nominal_mv=900)
        assert model.multiplier(950) < 1.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            CrossSectionModel(sigma0_cm2=0)
        with pytest.raises(ConfigurationError):
            CrossSectionModel(voltage_slope=-1)
        with pytest.raises(ConfigurationError):
            CrossSectionModel().sigma_cm2(0)

    @given(
        slope=st.floats(min_value=0.0, max_value=10.0),
        mv=st.integers(min_value=700, max_value=980),
    )
    def test_multiplier_at_least_one_below_nominal(self, slope, mv):
        model = CrossSectionModel(voltage_slope=slope)
        assert model.multiplier(mv) >= 1.0


class TestCalibration:
    def test_fit_voltage_slope_roundtrip(self):
        model = CrossSectionModel(voltage_slope=1.7)
        ratio = model.multiplier(920)
        assert fit_voltage_slope(980, 920, ratio) == pytest.approx(1.7)

    def test_fit_voltage_slope_paper_totals(self):
        # Fig. 9: 1.01 -> 1.12 upsets/min between 980 and 920 mV.
        k = fit_voltage_slope(980, 920, 1.12 / 1.01)
        assert 1.0 < k < 2.5

    def test_fit_rejects_degenerate_inputs(self):
        with pytest.raises(ConfigurationError):
            fit_voltage_slope(980, 980, 1.1)
        with pytest.raises(ConfigurationError):
            fit_voltage_slope(980, 920, 0.0)
        with pytest.raises(ConfigurationError):
            fit_voltage_slope(-1, 920, 1.1)
