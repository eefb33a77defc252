"""Unit tests for the statistical acceptance gates."""

import numpy as np
import pytest
from scipy import stats

from repro.errors import ValidationError
from repro.validate import (
    GateResult,
    SeedLadder,
    interval_coverage_gate,
    poisson_bounds,
    poisson_count_gate,
    poisson_dispersion_gate,
    poisson_pair_gate,
    proportion_gate,
)
from repro.core.confidence import poisson_rate_interval
from repro.validate.gates import DEFAULT_EPSILON


class TestPoissonBounds:
    def test_central_interval_brackets_mean(self):
        lower, upper = poisson_bounds(100.0)
        assert lower < 100 < upper

    def test_zero_mean_accepts_only_zero(self):
        assert poisson_bounds(0.0) == (0, 0)

    def test_wider_epsilon_narrows_interval(self):
        tight = poisson_bounds(100.0, epsilon=0.1)
        wide = poisson_bounds(100.0, epsilon=1e-6)
        assert wide[0] <= tight[0] and tight[1] <= wide[1]

    def test_invalid_args_rejected(self):
        with pytest.raises(ValidationError):
            poisson_bounds(-1.0)
        with pytest.raises(ValidationError):
            poisson_bounds(10.0, epsilon=0.7)
        # 1 - 1e-20 rounds to 1: the upper tail has no finite bound.
        with pytest.raises(ValidationError):
            poisson_bounds(10.0, epsilon=1e-20)


class TestPoissonCountGate:
    def test_count_near_mean_passes(self):
        assert poisson_count_gate("g", 95, 100.0).ok

    def test_count_far_from_mean_fails(self):
        gate = poisson_count_gate("g", 300, 100.0)
        assert not gate.ok
        assert "Poisson" in gate.detail

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            poisson_count_gate("g", -1, 10.0)


class TestPoissonPairGate:
    def test_similar_counts_pass(self):
        assert poisson_pair_gate("g", 100, 110).ok

    def test_wildly_different_counts_fail(self):
        assert not poisson_pair_gate("g", 100, 400).ok

    def test_zero_zero_passes(self):
        assert poisson_pair_gate("g", 0, 0).ok


class TestDispersionGate:
    def test_poisson_like_counts_pass(self):
        # Draws around a mean of 100 with ~sqrt(100) spread.
        assert poisson_dispersion_gate("g", [96, 104, 91, 108, 99]).ok

    def test_constant_counts_underdispersed(self):
        # Identical counts have dispersion 0: a broken / shared stream.
        assert not poisson_dispersion_gate("g", [100] * 10).ok

    def test_overdispersed_counts_fail(self):
        assert not poisson_dispersion_gate("g", [10, 400, 15, 380, 12]).ok

    def test_all_zero_degenerate_passes(self):
        assert poisson_dispersion_gate("g", [0, 0, 0]).ok

    def test_needs_two_counts(self):
        with pytest.raises(ValidationError):
            poisson_dispersion_gate("g", [5])


class TestMatchesScipyStats:
    """The gates' quantiles equal the ``scipy.stats`` calls they replaced.

    Checked with ``==``, not approx: the gates evaluate the
    ``scipy.special`` ufuncs that ``scipy.stats`` wraps.
    """

    def test_poisson_bounds_for_means_up_to_1e4(self):
        means = np.unique(
            np.r_[
                np.geomspace(1e-9, 1.0, 2_000),
                np.linspace(1e-3, 1e4, 20_000),
                np.arange(1, 10_001, dtype=float),
                np.arange(1, 10_001) - 0.5,
            ]
        )
        lower = stats.poisson.ppf(DEFAULT_EPSILON, means).astype(int).tolist()
        upper = stats.poisson.ppf(1.0 - DEFAULT_EPSILON, means).astype(int).tolist()
        bounds = [poisson_bounds(float(mean)) for mean in means]
        assert [b[0] for b in bounds] == lower
        assert [b[1] for b in bounds] == upper

    def test_poisson_bounds_at_cdf_values(self):
        # At epsilon = CDF(k), ceil(pdtrik) lands one count high about half
        # the time; scipy's pdtr step brings it back, and so must the gate.
        cases = []
        for mean in np.geomspace(0.01, 1e4, 60):
            ks = np.arange(int(mean + 8 * mean**0.5 + 8))
            cdf = stats.poisson.cdf(ks, mean)
            # Past float resolution (1 - eps == 1) the bounds are refused;
            # test_invalid_args_rejected covers that.
            cases += [(mean, eps) for eps in cdf[(cdf > 1e-16) & (cdf < 0.5)]]
        means, eps = np.array(cases).T
        lower = stats.poisson.ppf(eps, means).astype(int).tolist()
        upper = stats.poisson.ppf(1.0 - eps, means).astype(int).tolist()
        bounds = [poisson_bounds(*case) for case in cases]
        assert len(bounds) > 5_000
        assert [b[0] for b in bounds] == lower
        assert [b[1] for b in bounds] == upper

    def test_dispersion_gate_p_values(self):
        # The gate passes iff p >= alpha, so passing at alpha = p_ref and
        # failing at the next float above pins p == p_ref exactly.
        rng = np.random.default_rng(2025)
        samples = [[7] * 5, [100] * 10, [10, 400, 15, 380, 12]]
        for n in (2, 3, 5, 10, 40):
            for mean in (0.3, 4.0, 100.0, 5_000.0):
                samples += [rng.poisson(mean, n).tolist() for _ in range(20)]
        checked = 0
        for counts in samples:
            n = len(counts)
            cbar = sum(counts) / n
            if cbar == 0:
                continue
            dispersion = sum((c - cbar) ** 2 for c in counts) / cbar
            p_ref = 2.0 * min(
                float(stats.chi2.cdf(dispersion, n - 1)),
                float(stats.chi2.sf(dispersion, n - 1)),
            )
            assert poisson_dispersion_gate("g", counts, alpha=p_ref).ok
            above = float(np.nextafter(p_ref, np.inf))
            assert not poisson_dispersion_gate("g", counts, alpha=above).ok
            checked += 1
        assert checked > 350


class TestProportionGate:
    def test_expected_inside_wilson_ci_passes(self):
        assert proportion_gate("g", 30, 100, 0.3).ok

    def test_expected_outside_ci_fails(self):
        assert not proportion_gate("g", 30, 100, 0.9).ok

    def test_small_trials_widen_acceptance(self):
        # 1 of 3 is consistent with nearly anything: its Wilson 95% CI
        # spans [0.06, 0.79].
        assert proportion_gate("g", 1, 3, 0.7).ok
        assert not proportion_gate("g", 1, 30, 0.7).ok

    def test_clopper_pearson_method(self):
        gate = proportion_gate(
            "g", 2, 12, 0.167, method="clopper-pearson"
        )
        assert gate.ok and "clopper-pearson" in gate.detail

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            proportion_gate("g", 1, 2, 0.5, method="bayes")

    def test_expected_must_be_probability(self):
        with pytest.raises(ValidationError):
            proportion_gate("g", 1, 2, 1.5)


class TestIntervalCoverageGate:
    def test_covering_interval_passes(self):
        interval = poisson_rate_interval(100, 100.0)
        assert interval_coverage_gate("g", interval, 1.0).ok

    def test_non_covering_interval_fails(self):
        interval = poisson_rate_interval(100, 100.0)
        assert not interval_coverage_gate("g", interval, 5.0).ok


class TestGateResult:
    def test_render_shows_verdict_and_values(self):
        line = GateResult(
            gate="t/x", ok=False, measured="1", expected="2", detail="d"
        ).render()
        assert "[FAIL] t/x" in line and "1" in line and "d" in line

    def test_to_dict_round_trips_fields(self):
        gate = GateResult(gate="t/x", ok=True, measured="1", expected="2")
        data = gate.to_dict()
        assert data["gate"] == "t/x" and data["ok"] is True


class TestSeedLadder:
    def test_construction_validates(self):
        with pytest.raises(ValidationError):
            SeedLadder([], required=1)
        with pytest.raises(ValidationError):
            SeedLadder([1, 1], required=1)
        with pytest.raises(ValidationError):
            SeedLadder([1, 2], required=3)

    def test_k_of_n_acceptance(self):
        ladder = SeedLadder([1, 2, 3, 4, 5], required=3)
        result = ladder.run("g", lambda seed: seed % 2 == 1)
        assert result.passes == 3
        assert result.ok
        assert ladder.run("g", lambda seed: seed == 1).ok is False

    def test_tuple_verdicts_carry_detail(self):
        ladder = SeedLadder([7], required=1)
        result = ladder.run("g", lambda seed: (False, "too low"))
        assert not result.ok
        assert result.trials[0].detail == "too low"

    def test_crashed_rung_is_a_failed_rung(self):
        ladder = SeedLadder([1, 2], required=2)

        def check(seed):
            if seed == 2:
                raise RuntimeError("boom")
            return True

        result = ladder.run("g", check)
        assert not result.ok
        assert [t.ok for t in result.trials] == [True, False]
        assert "boom" in result.trials[1].detail

    def test_run_counting_pools_events(self):
        ladder = SeedLadder([1, 2, 3], required=1)
        gate = ladder.run_counting(
            "g", lambda seed: (3, 4), required_hits=9
        )
        assert gate.ok
        assert gate.measured == "9/12 hits"
        assert not ladder.run_counting(
            "g", lambda seed: (3, 4), required_hits=10
        ).ok

    def test_run_counting_crashed_rung_contributes_nothing(self):
        ladder = SeedLadder([1, 2], required=1)

        def trial(seed):
            if seed == 2:
                raise RuntimeError("boom")
            return (5, 5)

        gate = ladder.run_counting("g", trial, required_hits=6)
        assert not gate.ok
        assert "raised" in gate.detail
