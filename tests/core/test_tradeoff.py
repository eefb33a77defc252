"""Power-vs-susceptibility trade-off analytics (Section 5)."""

import pytest

from repro.core.tradeoff import TradeoffSeries, build_tradeoff_series
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def series():
    return build_tradeoff_series()


class TestFig9Shape:
    def test_four_points(self, series):
        assert len(series.points) == 4

    def test_power_matches_paper(self, series):
        watts = [p.power_watts for p in series.points]
        paper = [20.40, 18.63, 18.15, 10.59]
        for ours, theirs in zip(watts, paper):
            assert ours == pytest.approx(theirs, abs=0.15)

    def test_upsets_match_paper(self, series):
        rates = [p.upsets_per_min for p in series.points]
        paper = [1.01, 1.08, 1.12, 1.18]
        for ours, theirs in zip(rates, paper):
            assert ours == pytest.approx(theirs, abs=0.04)

    def test_power_decreases_and_upsets_increase(self, series):
        watts = [p.power_watts for p in series.points]
        rates = [p.upsets_per_min for p in series.points]
        assert watts == sorted(watts, reverse=True)
        assert rates == sorted(rates)


class TestFig10Shape:
    def test_savings_match_paper(self, series):
        savings = [p.power_savings_pct for p in series.points[1:]]
        paper = [8.7, 11.0, 48.1]
        for ours, theirs in zip(savings, paper):
            assert ours == pytest.approx(theirs, abs=1.5)

    def test_susceptibility_match_paper(self, series):
        susceptibility = [
            p.susceptibility_increase_pct for p in series.points[1:]
        ]
        paper = [6.9, 10.9, 16.8]
        for ours, theirs in zip(susceptibility, paper):
            assert ours == pytest.approx(theirs, abs=3.0)

    def test_observation7_at_24ghz(self, series):
        # At 2.4 GHz susceptibility outpaces savings...
        outpaced = series.savings_outpaced_by_susceptibility()
        labels = {p.point.label for p in outpaced}
        assert "Vmin" in labels or "Safe" in labels
        # ...but the combined voltage+frequency point flips the balance.
        low = series.by_label("Vmin@900MHz")
        assert low.power_savings_pct > low.susceptibility_increase_pct


class TestApi:
    def test_by_label_lookup(self, series):
        assert series.by_label("Nominal").power_savings_pct == pytest.approx(0.0)
        with pytest.raises(AnalysisError):
            series.by_label("nope")

    def test_nominal_is_reference(self, series):
        assert series.nominal.susceptibility_increase_pct == pytest.approx(0.0)

    def test_empty_series_rejected(self):
        with pytest.raises(AnalysisError):
            TradeoffSeries(points=[])
