"""Cross-module consistency: every view of a campaign tells one story."""

import csv
import io

import pytest

from repro import Campaign, CampaignAnalysis, OutcomeKind
from repro.core.reporting import CampaignReport
from repro.injection.calibration import LevelRateModel
from repro.io import campaign_from_dict, campaign_to_dict


@pytest.fixture(scope="module")
def campaign():
    # Any seed works: every check against this fixture is a
    # deterministic cross-view invariant (counts summing, reports
    # quoting analysis numbers), not a statistical claim.  Statistical
    # claims go through the seed ladder below instead of a pinned seed.
    return Campaign(seed=32, time_scale=0.2).run()


@pytest.fixture(scope="module")
def analysis(campaign):
    return CampaignAnalysis(campaign)


class TestSummaryConsistency:
    def test_counts_consistent_across_views(self, campaign, analysis):
        # The injection summary, the EDAC archive and Table 2 agree.
        table = analysis.table2()
        for row, label in zip(table.rows, campaign.labels()):
            session = campaign.session(label)
            upsets_column = table.column("Memory upsets (#)")
            assert session.upset_count in upsets_column
            assert len(session.edac) == session.upset_count

    def test_fig5_rows_aggregate_to_session_totals(self, campaign, analysis):
        for label in campaign.labels():
            session = campaign.session(label)
            per_bench = analysis.benchmark_upset_rates(label)
            total_events = sum(
                rate.events for rate in per_bench.values()
            )
            assert total_events == session.upset_count

    def test_level_rates_aggregate_to_total(self, campaign, analysis):
        for label in campaign.labels():
            session = campaign.session(label)
            level_rates = analysis.level_upset_rates(label)
            total = sum(level_rates.values())
            assert total == pytest.approx(
                session.upset_rate_per_min, rel=1e-9
            )

    def test_failure_mix_matches_fit_shares(self, analysis):
        # Fig. 8's percentages and Fig. 11's FIT shares are the same
        # partition of the same events.
        label = "session3"
        mix = analysis.failure_mix(label)
        total_fit = analysis.total_fit(label).fit
        for kind in (OutcomeKind.SDC, OutcomeKind.SYS_CRASH):
            fit_share = (
                100.0 * analysis.category_fit(label, kind).fit / total_fit
            )
            assert fit_share == pytest.approx(mix[kind], rel=1e-9)


class TestReportConsistency:
    def test_report_quotes_analysis_numbers(self, campaign, analysis):
        report = CampaignReport(campaign).render()
        sdc_x = analysis.sdc_fit_increase("session3", "session1")
        assert f"x{sdc_x:.1f}" in report

    def test_report_on_reloaded_campaign_identical(self, campaign):
        reloaded = campaign_from_dict(campaign_to_dict(campaign))
        original_report = CampaignReport(campaign).render()
        reloaded_report = CampaignReport(reloaded).render()
        assert reloaded_report == original_report


class TestModelConsistency:
    def test_measured_rates_bracket_model_expectations(self):
        # A single campaign misses one of its four 95% CIs for ~1 in 5
        # seeds -- PR 1 papered over that with a hand-picked seed.  The
        # ladder pools the coverage events instead: 20 checks over 5
        # seeds, tolerating the CI's own advertised miss rate.
        from repro.experiments.config import shared_campaign
        from repro.validate import SeedLadder

        model = LevelRateModel()

        def trial(seed):
            campaign = shared_campaign(seed, 0.05)
            analysis = CampaignAnalysis(campaign)
            hits, total = 0, 0
            for label in campaign.labels():
                session = campaign.session(label)
                point = session.plan.point
                expected = model.total_rate_per_min(
                    point.pmd_mv, point.soc_mv, session.plan.flux_per_cm2_s
                )
                rate = analysis.upset_rate(label)
                hits += int(
                    rate.interval.lower <= expected <= rate.interval.upper
                )
                total += 1
            return hits, total

        ladder = SeedLadder((101, 102, 103, 104, 105))
        gate = ladder.run_counting(
            "cross_checks/rate_bracket", trial, required_hits=18
        )
        assert gate.ok, gate.render()

    def test_csv_export_matches_table(self, analysis):
        table = analysis.table2()
        parsed = list(csv.reader(io.StringIO(table.to_csv())))
        assert parsed[0] == table.header
        voltages = [row[1] for row in parsed[1:]]
        assert voltages == ["980", "930", "920", "790"]
