"""Persistence round-trips."""

import json

import pytest

from repro import Campaign
from repro.core.analysis import CampaignAnalysis as Analysis
from repro.errors import AnalysisError
from repro.injection.events import OutcomeKind
from repro.io import (
    ResultsDirectory,
    campaign_from_dict,
    campaign_to_dict,
    load_campaign,
    save_campaign,
)


@pytest.fixture(scope="module")
def campaign():
    return Campaign(seed=21, time_scale=0.1).run()


class TestJsonRoundtrip:
    def test_dict_roundtrip_preserves_counts(self, campaign):
        reloaded = campaign_from_dict(campaign_to_dict(campaign))
        for label in campaign.labels():
            original = campaign.session(label)
            restored = reloaded.session(label)
            assert restored.upset_count == original.upset_count
            assert restored.failure_count == original.failure_count
            assert restored.fluence.fluence_per_cm2 == pytest.approx(
                original.fluence.fluence_per_cm2
            )
            assert restored.duration_minutes == pytest.approx(
                original.duration_minutes
            )

    def test_analysis_identical_after_reload(self, campaign):
        reloaded = campaign_from_dict(campaign_to_dict(campaign))
        a = Analysis(campaign)
        b = Analysis(reloaded)
        for row_a, row_b in zip(a.table2().rows, b.table2().rows):
            for cell_a, cell_b in zip(row_a, row_b):
                if isinstance(cell_a, float):
                    # Fluence is rebuilt as flux x seconds; identical up
                    # to one ulp of floating-point reassociation.
                    assert cell_b == pytest.approx(cell_a, rel=1e-12)
                else:
                    assert cell_b == cell_a
        for label in campaign.labels():
            if campaign.session(label).failure_count:
                assert a.failure_mix(label) == b.failure_mix(label)
            assert a.level_upset_rates(label) == b.level_upset_rates(label)
            assert a.benchmark_upset_rates(label).keys() == b.benchmark_upset_rates(
                label
            ).keys()
            for bench, rate in a.benchmark_upset_rates(label).items():
                assert b.benchmark_upset_rates(label)[
                    bench
                ].per_minute == pytest.approx(rate.per_minute)

    def test_notification_flags_survive(self, campaign):
        reloaded = campaign_from_dict(campaign_to_dict(campaign))
        for label in campaign.labels():
            original = [
                f.hw_notified
                for f in campaign.session(label).failures
                if f.kind is OutcomeKind.SDC
            ]
            restored = [
                f.hw_notified
                for f in reloaded.session(label).failures
                if f.kind is OutcomeKind.SDC
            ]
            assert restored == original

    def test_json_serializable(self, campaign):
        text = json.dumps(campaign_to_dict(campaign))
        assert json.loads(text)["schema"] == 1

    def test_unknown_schema_rejected(self, campaign):
        data = campaign_to_dict(campaign)
        data["schema"] = 99
        with pytest.raises(AnalysisError):
            campaign_from_dict(data)

    def test_file_roundtrip(self, campaign, tmp_path):
        path = str(tmp_path / "campaign.json")
        save_campaign(campaign, path)
        reloaded = load_campaign(path)
        assert reloaded.sram_bits == campaign.sram_bits
        assert reloaded.labels() == campaign.labels()


class TestResultsDirectory:
    def test_save_and_reload(self, campaign, tmp_path):
        results = ResultsDirectory(str(tmp_path / "run1"))
        results.save_campaign(campaign)
        reloaded = results.load_campaign()
        assert reloaded.labels() == campaign.labels()

    def test_missing_campaign_rejected(self, tmp_path):
        results = ResultsDirectory(str(tmp_path / "empty"))
        with pytest.raises(AnalysisError):
            results.load_campaign()
