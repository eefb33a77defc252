"""Confidence intervals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core.confidence import (
    ConfidenceInterval,
    binomial_interval,
    clopper_pearson_interval,
    poisson_interval,
    poisson_rate_interval,
)
from repro.errors import AnalysisError

#: Confidence levels the scipy.stats identity checks sweep.
LEVELS = (0.5, 0.9, 0.95, 0.99, 0.999)

#: (successes, trials) pairs: every pair up to 120 trials, then the
#: edges and a spread of interior counts at large trial counts.
BINOMIAL_GRID = [(k, n) for n in range(1, 121) for k in range(n + 1)] + [
    (k, n)
    for n in (500, 1_000, 10_000, 1_000_000)
    for k in sorted({0, 1, 2, 3, n // 7, n // 2, n - 3, n - 2, n - 1, n})
]


class TestConfidenceInterval:

    def test_scaling(self):
        ci = ConfidenceInterval(value=5.0, lower=3.0, upper=9.0).scaled(2.0)
        assert (ci.value, ci.lower, ci.upper) == (10.0, 6.0, 18.0)

    def test_invalid_interval_rejected(self):
        with pytest.raises(AnalysisError):
            ConfidenceInterval(value=10.0, lower=3.0, upper=9.0)
        with pytest.raises(AnalysisError):
            ConfidenceInterval(value=5.0, lower=3.0, upper=9.0, level=1.5)
        with pytest.raises(AnalysisError):
            ConfidenceInterval(value=5.0, lower=3.0, upper=9.0).scaled(-1.0)


class TestPoisson:
    def test_zero_count_lower_bound_zero(self):
        ci = poisson_interval(0)
        assert ci.lower == 0.0
        assert ci.upper == pytest.approx(3.689, abs=0.01)  # chi2 95% for k=0

    def test_hundred_events_near_sqrt_interval(self):
        ci = poisson_interval(100)
        assert ci.lower == pytest.approx(100 - 1.96 * 10, abs=2.0)
        assert ci.upper == pytest.approx(100 + 1.96 * 10, abs=3.0)

    def test_negative_count_rejected(self):
        with pytest.raises(AnalysisError):
            poisson_interval(-1)
        with pytest.raises(AnalysisError):
            poisson_interval(5, level=0.0)

    def test_rate_interval_scales(self):
        count_ci = poisson_interval(50)
        rate_ci = poisson_rate_interval(50, 100.0)
        assert rate_ci.value == pytest.approx(0.5)
        assert rate_ci.upper == pytest.approx(count_ci.upper / 100.0)

    def test_rate_requires_positive_exposure(self):
        with pytest.raises(AnalysisError):
            poisson_rate_interval(5, 0.0)

    @given(count=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100)
    def test_interval_contains_count(self, count):
        ci = poisson_interval(count)
        assert ci.lower <= count <= ci.upper

    @given(count=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=50)
    def test_coverage_property(self, count):
        # The exact interval's bounds, interpreted as Poisson means,
        # place the observed count at the alpha/2 tail probabilities.
        ci = poisson_interval(count)
        assert stats.poisson.cdf(count - 1, ci.upper) <= 0.025 + 1e-9
        assert 1 - stats.poisson.cdf(count, ci.lower) <= 0.025 + 1e-9


class TestBinomial:
    def test_interval_contains_proportion(self):
        ci = binomial_interval(30, 100)
        assert ci.lower <= 0.30 <= ci.upper

    def test_extremes_bounded(self):
        zero = binomial_interval(0, 50)
        full = binomial_interval(50, 50)
        assert zero.lower == 0.0
        assert full.upper == 1.0

    def test_more_trials_tighter(self):
        wide = binomial_interval(5, 10)
        narrow = binomial_interval(500, 1000)
        assert narrow.upper - narrow.lower < wide.upper - wide.lower

    def test_validation(self):
        with pytest.raises(AnalysisError):
            binomial_interval(5, 0)
        with pytest.raises(AnalysisError):
            binomial_interval(11, 10)
        with pytest.raises(AnalysisError):
            binomial_interval(5, 10, level=1.0)

    @given(
        successes=st.integers(min_value=0, max_value=200),
        extra=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=100)
    def test_wilson_contains_p_property(self, successes, extra):
        trials = successes + extra
        if trials == 0:
            return
        ci = binomial_interval(successes, trials)
        p = successes / trials
        assert ci.lower <= p + 1e-12
        assert ci.upper >= p - 1e-12


class TestMatchesScipyStats:
    """Each bound equals the ``scipy.stats`` value it replaced, bit for bit.

    The module evaluates the quantiles through the ``scipy.special``
    ufuncs that ``scipy.stats`` wraps; these checks hold that identity
    with ``==``, not approx, on whichever scipy runs them.
    """

    @staticmethod
    def _garwood(counts, level):
        alpha = 1.0 - level
        lower = np.where(
            counts == 0,
            0.0,
            0.5 * stats.chi2.ppf(alpha / 2.0, np.maximum(2 * counts, 1)),
        )
        upper = 0.5 * stats.chi2.ppf(1.0 - alpha / 2.0, 2 * counts + 2)
        return lower.tolist(), upper.tolist()

    def test_poisson_interval_every_count_to_1e5(self):
        counts = np.arange(100_001)
        lower, upper = self._garwood(counts, 0.95)
        intervals = [poisson_interval(k) for k in range(100_001)]
        assert [ci.lower for ci in intervals] == lower
        assert [ci.upper for ci in intervals] == upper

    @pytest.mark.parametrize("level", LEVELS)
    def test_poisson_interval_at_each_level(self, level):
        counts = np.unique(
            np.r_[np.arange(2_001), np.geomspace(2_001, 100_000, 400).astype(int)]
        )
        lower, upper = self._garwood(counts, level)
        intervals = [poisson_interval(int(k), level) for k in counts]
        assert [ci.lower for ci in intervals] == lower
        assert [ci.upper for ci in intervals] == upper

    @pytest.mark.parametrize("level", LEVELS)
    def test_wilson_interval(self, level):
        z = stats.norm.ppf(0.5 + level / 2.0)
        for k, n in BINOMIAL_GRID:
            p = k / n
            denom = 1.0 + z * z / n
            center = (p + z * z / (2 * n)) / denom
            margin = z * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5) / denom
            ci = binomial_interval(k, n, level)
            assert ci.lower == min(max(0.0, float(center - margin)), p)
            assert ci.upper == max(min(1.0, float(center + margin)), p)

    @pytest.mark.parametrize("level", LEVELS)
    def test_clopper_pearson_interval(self, level):
        alpha = 1.0 - level
        k, n = np.array(BINOMIAL_GRID).T
        p = k / n
        lower = np.where(
            k == 0, 0.0, stats.beta.ppf(alpha / 2.0, np.maximum(k, 1), n - k + 1)
        )
        upper = np.where(
            k == n,
            1.0,
            stats.beta.ppf(1.0 - alpha / 2.0, k + 1, np.maximum(n - k, 1)),
        )
        intervals = [clopper_pearson_interval(*pair, level) for pair in BINOMIAL_GRID]
        assert [ci.lower for ci in intervals] == np.minimum(lower, p).tolist()
        assert [ci.upper for ci in intervals] == np.maximum(upper, p).tolist()
