"""Dynamic cross-section (Eq. 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cross_section import dynamic_cross_section
from repro.errors import AnalysisError


class TestDcs:
    def test_eq1(self):
        dcs = dynamic_cross_section(events=95, fluence_per_cm2=1.49e11)
        assert dcs.cm2 == pytest.approx(95 / 1.49e11)

    def test_interval_contains_estimate(self):
        dcs = dynamic_cross_section(50, 1e10)
        assert dcs.interval.lower <= dcs.cm2 <= dcs.interval.upper

    def test_zero_events_allowed(self):
        dcs = dynamic_cross_section(0, 1e10)
        assert dcs.cm2 == 0.0
        assert dcs.interval.upper > 0.0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            dynamic_cross_section(-1, 1e10)
        with pytest.raises(AnalysisError):
            dynamic_cross_section(5, 0.0)

    @given(
        events=st.integers(min_value=0, max_value=100_000),
        fluence=st.floats(min_value=1e6, max_value=1e13),
    )
    @settings(max_examples=50)
    def test_dcs_scaling_property(self, events, fluence):
        dcs = dynamic_cross_section(events, fluence)
        double = dynamic_cross_section(events, 2 * fluence)
        assert double.cm2 == pytest.approx(dcs.cm2 / 2)
