"""The shared flown-campaign cache behind the experiment drivers."""

from repro.experiments.config import shared_campaign


class TestSharedCampaign:
    def test_cache_returns_same_object(self):
        a = shared_campaign(999, 0.01)
        b = shared_campaign(999, 0.01)
        assert a is b

    def test_different_keys_different_campaigns(self):
        a = shared_campaign(999, 0.01)
        b = shared_campaign(998, 0.01)
        assert a is not b
