"""CampaignSpec: validation, JSON round trip, hash identity."""

import json

import pytest

from repro.errors import SchedulerError
from repro.harness.campaign import Campaign
from repro.scheduler import CampaignSpec


class TestValidation:
    def test_defaults_are_valid(self):
        spec = CampaignSpec()
        assert spec.seed == 2023
        assert spec.time_scale == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": "nope"},
            {"seed": True},
            {"time_scale": 0.0},
            {"time_scale": -1.0},
            {"time_scale": "fast"},
            {"tech_node": "no-such-node"},
            {"priority": 1.5},
            {"priority": False},
            {"max_workers": 0},
            {"max_workers": -2},
            {"max_workers": True},
            {"max_workers": 1.5},
        ],
    )
    def test_bad_fields_refused(self, kwargs):
        with pytest.raises(SchedulerError):
            CampaignSpec(**kwargs)

    def test_time_scale_coerced_to_float(self):
        assert isinstance(CampaignSpec(time_scale=1).time_scale, float)


class TestJsonRoundTrip:
    def test_round_trip_preserves_identity(self):
        spec = CampaignSpec(
            seed=7, time_scale=0.05, priority=3, name="night shift",
            max_workers=2,
        )
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec
        assert again.submission_id == spec.submission_id

    def test_unknown_keys_refused(self):
        # A misspelled knob must never be silently dropped -- a typo'd
        # "time_scale" would submit a full-length campaign.
        with pytest.raises(SchedulerError, match="timescale"):
            CampaignSpec.from_dict({"timescale": 0.01})

    def test_non_object_refused(self):
        with pytest.raises(SchedulerError):
            CampaignSpec.from_dict([1, 2, 3])
        with pytest.raises(SchedulerError):
            CampaignSpec.from_json("not json at all {")

    def test_to_dict_omits_unset_optionals(self):
        data = CampaignSpec().to_dict()
        assert "name" not in data
        assert "max_workers" not in data
        assert "tech_node" not in data
        full = CampaignSpec(
            name="x", max_workers=3, tech_node="7nm"
        ).to_dict()
        assert full["name"] == "x"
        assert full["max_workers"] == 3
        assert full["tech_node"] == "7nm"

    def test_to_dict_writes_no_retired_knob(self):
        data = CampaignSpec(seed=5, time_scale=0.1).to_dict()
        assert set(data) == {"seed", "time_scale", "priority"}

    def test_to_json_is_stable(self):
        spec = CampaignSpec(seed=1, time_scale=0.5)
        assert spec.to_json() == CampaignSpec(seed=1, time_scale=0.5).to_json()
        json.loads(spec.to_json())  # well-formed


class TestRetiredKnobs:
    def test_vectorized_true_still_reads(self):
        # Every spec file written before the knob left carries it.
        legacy = {"seed": 5, "time_scale": 0.1, "vectorized": True}
        spec = CampaignSpec.from_dict(legacy)
        assert spec == CampaignSpec(seed=5, time_scale=0.1)
        assert spec.submission_id == CampaignSpec(
            seed=5, time_scale=0.1
        ).submission_id

    @pytest.mark.parametrize("value", [False, 0, "true", None])
    def test_vectorized_other_than_true_refused(self, value):
        with pytest.raises(SchedulerError, match="'vectorized'"):
            CampaignSpec.from_dict({"seed": 5, "vectorized": value})

    @pytest.mark.parametrize("value", [1.5e6, None])
    def test_flux_refused(self, value):
        with pytest.raises(SchedulerError, match="'flux_per_cm2_s'"):
            CampaignSpec.from_dict({"seed": 5, "flux_per_cm2_s": value})


class TestHashIdentity:
    def test_spec_hash_equals_campaign_hash(self):
        # The spec's identity IS the campaign's manifest/journal hash;
        # if these ever drift, dedupe and resume pinning both lie.
        spec = CampaignSpec(seed=11, time_scale=0.02)
        campaign = Campaign(seed=11, time_scale=0.02)
        assert spec.config_hash() == campaign.config_hash()

    def test_scheduling_knobs_do_not_change_the_hash(self):
        # priority, name, and the worker quota decide when/where a
        # campaign runs, never what it computes.
        base = CampaignSpec(seed=3, time_scale=0.1)
        decorated = CampaignSpec(
            seed=3, time_scale=0.1, priority=9, name="hot", max_workers=1
        )
        assert base.config_hash() == decorated.config_hash()
        assert base.submission_id == decorated.submission_id

    def test_physics_changes_the_hash(self):
        a = CampaignSpec(seed=3, time_scale=0.1)
        assert a.config_hash() != CampaignSpec(seed=4, time_scale=0.1).config_hash()
        assert a.config_hash() != CampaignSpec(seed=3, time_scale=0.2).config_hash()
        assert (
            a.config_hash()
            != CampaignSpec(seed=3, time_scale=0.1, tech_node="7nm").config_hash()
        )

    def test_identities_are_pinned(self):
        # Retiring the flux and injector knobs kept every id: stores,
        # job files and manifests written before still resolve.
        assert (
            CampaignSpec(seed=2023, time_scale=0.5).submission_id
            == "sub-e6b539afc180"
        )
        assert (
            CampaignSpec(seed=7, time_scale=0.05, tech_node="7nm").submission_id
            == "sub-884f85628c22"
        )

    def test_submission_id_shape(self):
        sid = CampaignSpec().submission_id
        assert sid.startswith("sub-")
        assert len(sid) == len("sub-") + 12
