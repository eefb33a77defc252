"""The planner: pure expansion, stable ids, executable units."""

from repro.scheduler import CampaignSpec, plan_campaign
from repro.scheduler.planner import plan_units


class TestPlanCampaign:
    def test_plans_the_table2_sessions_in_order(self):
        plan = plan_campaign(CampaignSpec(time_scale=0.01))
        assert plan.labels() == [
            "session1",
            "session2",
            "session3",
            "session4",
        ]
        assert [u.seq for u in plan.units] == [0, 1, 2, 3]

    def test_unit_ids_are_hash_prefixed_and_stable(self):
        spec = CampaignSpec(time_scale=0.01)
        plan_a = plan_campaign(spec)
        plan_b = plan_campaign(CampaignSpec(time_scale=0.01))
        assert [u.unit_id for u in plan_a.units] == [
            u.unit_id for u in plan_b.units
        ]
        prefix = plan_a.config_hash[:12]
        for unit in plan_a.units:
            assert unit.unit_id == f"{prefix}/{unit.label}"

    def test_different_physics_different_ids(self):
        a = plan_campaign(CampaignSpec(time_scale=0.01))
        b = plan_campaign(CampaignSpec(time_scale=0.02))
        assert {u.unit_id for u in a.units}.isdisjoint(
            u.unit_id for u in b.units
        )

    def test_submission_id_matches_spec(self):
        spec = CampaignSpec(time_scale=0.01, name="x")
        plan = plan_campaign(spec)
        assert plan.submission_id == spec.submission_id
        assert plan.display_name == "x"
        assert plan.spec == spec

    def test_planning_is_execution_free(self):
        # Planning twice and interleaving with nothing must not touch
        # any stream: the units carry (plan, seed), not results.
        plan = plan_campaign(CampaignSpec(time_scale=0.01))
        for planned in plan.units:
            assert planned.unit.args[1] == 2023  # the root seed
            assert planned.unit.kwargs == {"with_metrics": False}

    def test_units_actually_fly(self):
        # A planned unit is the same WorkUnit Campaign.run would build:
        # calling it flies the session.
        plan = plan_campaign(CampaignSpec(time_scale=0.005))
        unit = plan.units[0].unit
        session_result, sram_bits, snapshot = unit.fn(
            *unit.args, **unit.kwargs
        )
        assert session_result.plan.label == "session1"
        assert sram_bits > 0
        assert snapshot is None  # with_metrics defaults off


class TestPlanUnits:
    def test_respects_prepared_plans(self):
        # plan_units wraps whatever prepared plans it is given -- the
        # campaign's own time-scaled list, not the raw table.
        spec = CampaignSpec(time_scale=0.01)
        campaign = spec.campaign()
        units = plan_units(
            campaign.plans, seed=spec.seed, config_hash="a" * 16
        )
        assert [u.label for u in units] == [
            p.label for p in campaign.plans
        ]
        assert all(u.unit_id.startswith("aaaaaaaaaaaa/") for u in units)

    def test_only_the_scalar_reference_campaign_names_its_path(self):
        # The scalar injector is the `injector` pairing's reference; a
        # vectorized campaign's units carry no path flag at all.
        from repro.harness.campaign import Campaign

        scalar = Campaign(time_scale=0.01, vectorized=False).plan_campaign()
        vector = Campaign(time_scale=0.01).plan_campaign()
        assert all(u.unit.kwargs["vectorized"] is False for u in scalar.units)
        assert all("vectorized" not in u.unit.kwargs for u in vector.units)
