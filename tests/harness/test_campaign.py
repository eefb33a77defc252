"""Campaign runner."""

import pytest

from repro.errors import SessionError
from repro.harness.campaign import Campaign, CampaignResult


@pytest.fixture(scope="module")
def campaign_result():
    return Campaign(seed=3, time_scale=0.02).run()


class TestCampaign:
    def test_four_sessions_flown(self, campaign_result):
        assert campaign_result.labels() == [
            "session1", "session2", "session3", "session4",
        ]

    def test_sram_bits_recorded(self, campaign_result):
        assert campaign_result.sram_bits == 80_236_544

    def test_unknown_session_rejected(self, campaign_result):
        with pytest.raises(SessionError):
            campaign_result.session("session9")

    def test_time_scale_shrinks_durations(self, campaign_result):
        s1 = campaign_result.session("session1")
        assert s1.duration_minutes == pytest.approx(1651 * 0.02, abs=0.2)

    def test_fresh_chip_per_session(self):
        # Voltage settings must not leak between sessions: session 4
        # runs at 900 MHz, session 1 at 2.4 GHz.
        result = Campaign(seed=4, time_scale=0.005).run()
        assert result.session("session1").plan.point.freq_mhz == 2400
        assert result.session("session4").plan.point.freq_mhz == 900

    def test_deterministic(self):
        a = Campaign(seed=9, time_scale=0.01).run()
        b = Campaign(seed=9, time_scale=0.01).run()
        for label in a.labels():
            assert a.session(label).upset_count == b.session(label).upset_count

    def test_empty_result_lookup(self):
        with pytest.raises(SessionError):
            CampaignResult().session("session1")
