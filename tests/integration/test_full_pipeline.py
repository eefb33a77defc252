"""End-to-end integration: campaign -> analysis -> paper shape.

These tests fly a moderately sized campaign once (module-scoped) and
assert the qualitative claims of the paper -- the observations and
design implications -- rather than individual module behaviour.
"""

import pytest

from repro import Campaign, CampaignAnalysis, OutcomeKind
from repro.core.tradeoff import build_tradeoff_series
from repro.soc.edac import EdacSeverity
from repro.soc.geometry import CacheLevel


@pytest.fixture(scope="module")
def campaign():
    return Campaign(seed=2023, time_scale=0.3).run()


@pytest.fixture(scope="module")
def analysis(campaign):
    return CampaignAnalysis(campaign)


class TestObservation1:
    """Upset rates increase ~10% between nominal and safe Vmin.

    Session 3 is short (the paper's own caveat), so the measured rate
    carries real Poisson noise; the *expected* rates are deterministic
    and must show the increase exactly, while the measured rates must
    be statistically consistent with their expectations.
    """

    def test_expected_rate_rises_with_undervolt(self):
        from repro.injection.calibration import LevelRateModel

        model = LevelRateModel()
        nominal = model.total_rate_per_min(980, 950)
        vmin = model.total_rate_per_min(920, 920)
        assert 5.0 < (vmin / nominal - 1.0) * 100.0 < 20.0

    @pytest.mark.parametrize(
        "label,pmd,soc",
        [("session1", 980, 950), ("session2", 930, 925), ("session3", 920, 920)],
    )
    def test_measured_rate_consistent_with_expectation(
        self, analysis, label, pmd, soc
    ):
        from repro.injection.calibration import LevelRateModel

        expected = LevelRateModel().total_rate_per_min(pmd, soc)
        rate = analysis.upset_rate(label)
        assert rate.interval.lower <= expected <= rate.interval.upper


class TestObservation2:
    """Bigger SRAM arrays upset more, at every voltage."""

    @pytest.mark.parametrize("label", ["session1", "session2", "session3"])
    def test_level_ordering(self, analysis, label):
        rates = analysis.level_upset_rates(label)
        tlb = rates.get("TLBs/CE", 0.0)
        l1 = rates.get("L1 Cache/CE", 0.0)
        l2 = rates.get("L2 Cache/CE", 0.0)
        l3 = rates.get("L3 Cache/CE", 0.0)
        assert tlb < l2 < l3
        assert l1 < l2


class TestObservation3:
    """Protection copes: uncorrected errors stay rare and L3-only."""

    def test_ue_only_in_l3(self, campaign):
        for label in campaign.labels():
            session = campaign.session(label)
            for (level, severity), count in session.upsets.counts.items():
                if severity is EdacSeverity.UE and count:
                    assert level is CacheLevel.L3

    def test_ue_fraction_small(self, campaign):
        session = campaign.session("session1")
        ue = sum(
            n
            for (lvl, sev), n in session.upsets.counts.items()
            if sev is EdacSeverity.UE
        )
        assert ue / session.upset_count < 0.12


class TestObservation4:
    """SDC share of failures ~3x larger at Vmin than nominal."""

    def test_sdc_share_multiplies(self, analysis):
        nominal = analysis.failure_mix("session1")[OutcomeKind.SDC]
        vmin = analysis.failure_mix("session3")[OutcomeKind.SDC]
        assert vmin / nominal > 1.8

    def test_crash_shares_shrink(self, analysis):
        nominal = analysis.failure_mix("session1")
        vmin = analysis.failure_mix("session3")
        crash_nominal = (
            nominal[OutcomeKind.APP_CRASH] + nominal[OutcomeKind.SYS_CRASH]
        )
        crash_vmin = vmin[OutcomeKind.APP_CRASH] + vmin[OutcomeKind.SYS_CRASH]
        assert crash_vmin < crash_nominal


class TestObservations5to7:
    """Power/susceptibility trade-off shapes."""

    def test_observation5_power_down_susceptibility_up(self):
        series = build_tradeoff_series()
        nominal, safe = series.points[0], series.points[1]
        assert safe.power_watts < nominal.power_watts
        assert safe.upsets_per_min > nominal.upsets_per_min

    def test_observation6_frequency_hardly_matters(self):
        # Upsets at 790/900MHz rise smoothly along the voltage trend,
        # nothing like the power drop from the frequency cut.
        series = build_tradeoff_series()
        vmin, low = series.by_label("Vmin"), series.by_label("Vmin@900MHz")
        rate_change = (low.upsets_per_min - vmin.upsets_per_min) / vmin.upsets_per_min
        power_change = (vmin.power_watts - low.power_watts) / vmin.power_watts
        assert power_change > 0.3
        assert rate_change < 0.15

    def test_observation7_susceptibility_outpaces_savings_at_24ghz(self):
        series = build_tradeoff_series()
        safe = series.by_label("Safe")
        vmin = series.by_label("Vmin")
        assert safe.susceptibility_increase_pct > 0
        assert vmin.susceptibility_increase_pct > vmin.power_savings_pct * 0.8


class TestObservation8:
    """FIT rises at lower safe voltages; SDC FIT dominates at Vmin."""

    def test_total_fit_increases(self, analysis):
        assert analysis.total_fit_increase("session3", "session1") > 2.0

    def test_sdc_fit_increase_order_of_magnitude(self, analysis):
        assert analysis.sdc_fit_increase("session3", "session1") > 5.0

    def test_sdc_dominates_other_categories_at_vmin(self, analysis):
        sdc = analysis.category_fit("session3", OutcomeKind.SDC).fit
        app = analysis.category_fit("session3", OutcomeKind.APP_CRASH).fit
        sys = analysis.category_fit("session3", OutcomeKind.SYS_CRASH).fit
        assert sdc > 3 * max(app, sys)


class TestObservation9:
    """SDCs without hardware notification dominate, at every voltage."""

    @pytest.mark.parametrize("label", ["session1", "session2", "session3"])
    def test_unnotified_dominates(self, analysis, label):
        fits = analysis.sdc_fit_by_notification(label)
        assert (
            fits["without_notification"].fit
            >= fits["with_notification"].fit
        )


class TestSessionConsistency:
    def test_edac_archive_matches_upsets(self, campaign):
        for label in campaign.labels():
            session = campaign.session(label)
            assert len(session.edac) == session.upset_count

    def test_fluence_consistent_with_duration(self, campaign):
        for label in campaign.labels():
            session = campaign.session(label)
            expected = 1.5e6 * session.duration_minutes * 60
            assert session.fluence.fluence_per_cm2 == pytest.approx(
                expected, rel=0.01
            )

    def test_run_count_consistent_with_runtimes(self, campaign):
        session = campaign.session("session1")
        total_run_s = sum(d for _, _, d in session.flown_schedule())
        assert total_run_s == pytest.approx(
            session.duration_minutes * 60, rel=0.01
        )
