"""Beam-driven Monte-Carlo injector."""

import numpy as np
import pytest

from repro.constants import TNF_HALO_FLUX_PER_CM2_S
from repro.errors import InjectionError
from repro.injection.injector import BeamInjector, InjectionSummary
from repro.soc.dvfs import TABLE3_OPERATING_POINTS
from repro.soc.edac import EdacSeverity
from repro.soc.geometry import CacheLevel
from repro.soc.xgene2 import XGene2


@pytest.fixture
def injector(chip):
    return BeamInjector(chip)


def per_minute(injector, benchmark=None):
    """Expected events per level over one minute at the chip's point."""
    means = injector.poisson_means(
        injector.chip.operating_point(),
        benchmark,
        TNF_HALO_FLUX_PER_CM2_S,
        60.0,
    )
    return dict(zip(CacheLevel, means))


class TestExpectedRates:
    def test_total_rate_at_nominal(self, injector):
        total = sum(per_minute(injector).values())
        assert total == pytest.approx(1.01, abs=0.02)

    def test_benchmark_share_modulates_rate(self, injector):
        base = per_minute(injector)[CacheLevel.L3]
        cg = per_minute(injector, benchmark="CG")[CacheLevel.L3]
        ft = per_minute(injector, benchmark="FT")[CacheLevel.L3]
        assert cg < base < ft  # Fig. 5: CG below average, FT above

    def test_rate_rises_at_vmin(self, chip, injector):
        nominal = per_minute(injector)[CacheLevel.L2]
        chip.apply_operating_point(TABLE3_OPERATING_POINTS[2])
        assert per_minute(injector)[CacheLevel.L2] > nominal


class TestExposure:
    def test_event_count_matches_expectation(self, chip):
        injector = BeamInjector(chip)
        rng = np.random.default_rng(5)
        minutes = 400.0
        summary = injector.expose(minutes * 60, rng)
        # ~1.01/min expected; Poisson 3-sigma band around 404.
        assert 330 < summary.total_upsets < 480
        assert summary.total_upsets / minutes == pytest.approx(1.01, abs=0.15)

    def test_edac_log_populated(self, chip):
        injector = BeamInjector(chip)
        rng = np.random.default_rng(6)
        summary = injector.expose(3600 * 4, rng)
        assert len(chip.edac) == summary.total_upsets

    def test_l3_dominates_counts(self, chip):
        injector = BeamInjector(chip)
        rng = np.random.default_rng(7)
        summary = injector.expose(3600 * 6, rng)
        l3 = summary.count(level=CacheLevel.L3)
        assert l3 > summary.total_upsets * 0.6

    def test_uncorrected_only_in_l3(self, chip):
        injector = BeamInjector(chip)
        rng = np.random.default_rng(8)
        summary = injector.expose(3600 * 8, rng)
        for level in (CacheLevel.TLB, CacheLevel.L1, CacheLevel.L2):
            assert summary.count(level=level, severity=EdacSeverity.UE) == 0
        assert summary.count(CacheLevel.L3, EdacSeverity.UE) > 0

    def test_l3_ue_fraction_near_five_percent(self, chip):
        injector = BeamInjector(chip)
        rng = np.random.default_rng(9)
        summary = injector.expose(3600 * 20, rng)
        ue = summary.count(CacheLevel.L3, EdacSeverity.UE)
        ce = summary.count(CacheLevel.L3, EdacSeverity.CE)
        assert ue / (ue + ce) == pytest.approx(0.047, abs=0.03)

    def test_zero_duration_no_events(self, chip):
        injector = BeamInjector(chip)
        rng = np.random.default_rng(10)
        summary = injector.expose(0.0, rng)
        assert summary.total_upsets == 0

    def test_negative_duration_rejected(self, injector, rng):
        with pytest.raises(InjectionError):
            injector.expose(-1.0, rng)

    def test_event_times_within_window(self, chip):
        injector = BeamInjector(chip)
        rng = np.random.default_rng(11)
        summary = injector.expose(600.0, rng, time_offset_s=1000.0)
        for upset in summary.upsets:
            assert 1000.0 <= upset.time_s <= 1600.0

    def test_flux_scaling(self, chip):
        injector = BeamInjector(chip)
        rng = np.random.default_rng(12)
        half = injector.expose(3600 * 8, rng, flux_per_cm2_s=0.75e6)
        assert half.total_upsets / (8 * 60) == pytest.approx(0.505, abs=0.1)


class TestSummary:
    def test_merge_accumulates(self):
        a = InjectionSummary(duration_s=60.0)
        b = InjectionSummary(duration_s=120.0)
        a.counts[(CacheLevel.L3, EdacSeverity.CE)] = 2
        b.counts[(CacheLevel.L3, EdacSeverity.CE)] = 3
        a.merge(b)
        assert a.duration_s == 180.0
        assert a.counts[(CacheLevel.L3, EdacSeverity.CE)] == 5

    def test_merge_empty_into_empty(self):
        a = InjectionSummary()
        a.merge(InjectionSummary())
        assert a.total_upsets == 0
        assert a.duration_s == 0.0
        assert a.counts == {}

    def test_merge_empty_is_identity(self, chip):
        injector = BeamInjector(chip)
        rng = np.random.default_rng(21)
        summary = injector.expose(3600.0, rng)
        events, duration = summary.total_upsets, summary.duration_s
        counts = dict(summary.counts)
        summary.merge(InjectionSummary())
        assert summary.total_upsets == events
        assert summary.duration_s == duration
        assert summary.counts == counts

    def test_counts_only_summary_totals_from_histogram(self):
        # Summaries reloaded from disk may carry counts but no events.
        reloaded = InjectionSummary(duration_s=120.0)
        reloaded.counts[(CacheLevel.L3, EdacSeverity.CE)] = 9
        reloaded.counts[(CacheLevel.L1, EdacSeverity.CE)] = 1
        assert reloaded.total_upsets == 10

    def test_merge_counts_only_summaries(self):
        a = InjectionSummary(duration_s=60.0)
        a.counts[(CacheLevel.L2, EdacSeverity.CE)] = 4
        b = InjectionSummary(duration_s=60.0)
        b.counts[(CacheLevel.L2, EdacSeverity.CE)] = 6
        b.counts[(CacheLevel.L3, EdacSeverity.UE)] = 1
        a.merge(b)
        assert a.total_upsets == 11
        assert a.count(CacheLevel.L2) == 10
        assert a.count(severity=EdacSeverity.UE) == 1

    def test_count_filters(self):
        s = InjectionSummary()
        s.counts[(CacheLevel.L3, EdacSeverity.CE)] = 5
        s.counts[(CacheLevel.L3, EdacSeverity.UE)] = 2
        s.counts[(CacheLevel.L1, EdacSeverity.CE)] = 3
        assert s.count() == 10
        assert s.count(level=CacheLevel.L3) == 7
        assert s.count(severity=EdacSeverity.CE) == 8
        assert s.count(CacheLevel.L3, EdacSeverity.UE) == 2
        assert s.count(CacheLevel.TLB) == 0
        assert s.count(CacheLevel.L1, EdacSeverity.UE) == 0


class TestVectorizedPath:
    """The batched numpy path must match the scalar reference path in
    distribution (the draw sequences differ by construction)."""

    def test_scalar_path_still_available(self, chip):
        injector = BeamInjector(chip, vectorized=False)
        rng = np.random.default_rng(30)
        summary = injector.expose(3600 * 4, rng)
        assert summary.total_upsets > 0

    def test_rates_agree_between_paths(self):
        minutes = 1200.0
        chip_v = XGene2()
        vec = BeamInjector(chip_v, vectorized=True).expose(
            minutes * 60, np.random.default_rng(31)
        )
        chip_s = XGene2()
        sca = BeamInjector(chip_s, vectorized=False).expose(
            minutes * 60, np.random.default_rng(31)
        )
        # Both should sit in the same Poisson band around ~1.01/min.
        assert vec.total_upsets == pytest.approx(sca.total_upsets, rel=0.15)

    def test_level_mix_agrees_between_paths(self):
        minutes = 1500.0
        vec = BeamInjector(XGene2(), vectorized=True).expose(
            minutes * 60, np.random.default_rng(32)
        )
        sca = BeamInjector(XGene2(), vectorized=False).expose(
            minutes * 60, np.random.default_rng(32)
        )
        for level in CacheLevel:
            v = vec.count(level=level) / vec.total_upsets
            s = sca.count(level=level) / sca.total_upsets
            assert v == pytest.approx(s, abs=0.05)

    def test_each_path_is_deterministic(self):
        for vectorized in (True, False):
            a = BeamInjector(XGene2(), vectorized=vectorized).expose(
                3600.0, np.random.default_rng(33)
            )
            b = BeamInjector(XGene2(), vectorized=vectorized).expose(
                3600.0, np.random.default_rng(33)
            )
            assert a.counts == b.counts
            assert [u.time_s for u in a.upsets] == [
                u.time_s for u in b.upsets
            ]
