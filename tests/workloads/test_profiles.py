"""Benchmark calibration profiles and Fig. 5 shares."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.profiles import (
    FIG5_TOTAL_RATES,
    FIG5_UPSET_RATES,
    PROFILES,
    WorkloadProfile,
    benchmark_rate_share,
    mean_runtime_s,
)
from repro.workloads.suite import SUITE_NAMES


class TestProfiles:
    def test_every_benchmark_has_profile(self):
        assert set(PROFILES) == set(SUITE_NAMES)

    def test_runtimes_under_five_seconds(self):
        # Section 3.3's anti-fault-accumulation constraint.
        for profile in PROFILES.values():
            assert 0 < profile.runtime_s < 5.0

    def test_detection_efficiency_bounded(self):
        for profile in PROFILES.values():
            for level in ("TLBs", "L1 Cache", "L2 Cache", "L3 Cache"):
                assert 0 <= profile.detection_efficiency(level) <= 1

    def test_mean_runtime(self):
        assert mean_runtime_s() == pytest.approx(
            np.mean([p.runtime_s for p in PROFILES.values()])
        )

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(
                name="X", occupancy={"L1 Cache": 1.5}, read_recurrence=0.5,
                avf_sdc=0.3, activity=1.0, runtime_s=2.0,
            )
        with pytest.raises(ConfigurationError):
            WorkloadProfile(
                name="X", occupancy={}, read_recurrence=0.5,
                avf_sdc=0.3, activity=1.0, runtime_s=6.0,
            )


class TestFig5Shares:
    def test_shares_match_measured_points(self):
        for name, by_voltage in FIG5_UPSET_RATES.items():
            for mv, rate in by_voltage.items():
                expected = rate / FIG5_TOTAL_RATES[mv]
                assert benchmark_rate_share(name, mv) == pytest.approx(expected)

    def test_shares_average_near_one(self):
        for mv in FIG5_TOTAL_RATES:
            shares = [benchmark_rate_share(b, mv) for b in SUITE_NAMES]
            assert np.mean(shares) == pytest.approx(1.0, abs=0.05)

    def test_interpolation_between_points(self):
        mid = benchmark_rate_share("MG", 925)
        lo = benchmark_rate_share("MG", 920)
        hi = benchmark_rate_share("MG", 930)
        assert min(lo, hi) <= mid <= max(lo, hi)

    def test_clamped_outside_range(self):
        assert benchmark_rate_share("CG", 790) == pytest.approx(
            benchmark_rate_share("CG", 920)
        )
        assert benchmark_rate_share("CG", 1000) == pytest.approx(
            benchmark_rate_share("CG", 980)
        )

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigurationError):
            benchmark_rate_share("ZZ", 980)

    def test_mg_share_grows_toward_vmin(self):
        # MG's +40.4% at Vmin makes its share rise as voltage drops.
        assert benchmark_rate_share("MG", 920) > benchmark_rate_share("MG", 980)

    def test_cg_share_shrinks_toward_vmin(self):
        # CG's measured decrease (session-length artifact in the paper).
        assert benchmark_rate_share("CG", 920) < benchmark_rate_share("CG", 980)
