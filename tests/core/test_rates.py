"""Rate estimates."""

import pytest

from repro.core.rates import rate_per_minute
from repro.errors import AnalysisError


class TestRatePerMinute:
    def test_point_estimate(self):
        rate = rate_per_minute(1669, 1651.0)
        assert rate.per_minute == pytest.approx(1.011, abs=0.001)

    def test_interval_contains_estimate(self):
        rate = rate_per_minute(50, 100.0)
        assert rate.interval.lower <= rate.per_minute <= rate.interval.upper

    def test_validation(self):
        with pytest.raises(AnalysisError):
            rate_per_minute(-1, 10.0)
        with pytest.raises(AnalysisError):
            rate_per_minute(5, 0.0)
