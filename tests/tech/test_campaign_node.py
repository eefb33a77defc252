"""The node axis through campaign, spec and sweep -- anchored at 28 nm.

The load-bearing promise: adding the technology axis changed *nothing*
about default-node campaigns.  Config hashes computed before the axis
existed are pinned here verbatim; the anchor node must hash, plan and
fly byte-identically to no node at all.
"""

import json
import os

import pytest

from repro.cli import main
from repro.codecs.sweep import SweepSpec, run_cell, sweep_cells
from repro.errors import SchedulerError
from repro.harness.campaign import Campaign
from repro.scheduler import CampaignSpec, plan_campaign
from repro.tech import get_node
from repro.validate.differential import canonical_campaign_json

#: Config hashes captured on the commit *before* the tech axis landed.
PRE_TECH_DEFAULT_HASH = "31f73cfe63a98428"
PRE_TECH_VARIANT_HASH = "a7af0bd7f0971ccd"
PRE_TECH_SWEEP_HASH = (
    "fd2316c64498b28654d82b2fc41825f67a0cbfd37b0bfdd730afb91f92729cd3"
)


class TestAnchorIdentity:
    def test_default_spec_hash_pinned(self):
        assert CampaignSpec().config_hash() == PRE_TECH_DEFAULT_HASH

    def test_variant_spec_hash_pinned(self):
        spec = CampaignSpec(seed=7, time_scale=0.01)
        assert spec.config_hash() == PRE_TECH_VARIANT_HASH

    def test_anchor_node_hashes_like_no_node(self):
        assert (
            CampaignSpec(tech_node="xgene2-28").config_hash()
            == PRE_TECH_DEFAULT_HASH
        )
        assert (
            CampaignSpec(tech_node="28nm").config_hash()
            == PRE_TECH_DEFAULT_HASH
        )

    def test_non_default_node_moves_the_hash(self):
        assert CampaignSpec(tech_node="7nm").config_hash() != (
            PRE_TECH_DEFAULT_HASH
        )

    def test_anchor_campaign_flies_byte_identically(self):
        plain = Campaign(seed=5, time_scale=0.002)
        anchored = Campaign(seed=5, time_scale=0.002, tech_node="28nm")
        assert anchored.tech_node is None  # collapsed at construction
        assert canonical_campaign_json(plain.run()) == (
            canonical_campaign_json(anchored.run())
        )

    def test_default_unit_payloads_carry_no_node_kwarg(self):
        plan = plan_campaign(CampaignSpec(time_scale=0.01))
        for unit in plan.units:
            assert "tech_node" not in unit.unit.kwargs

    def test_node_unit_payloads_carry_the_node(self):
        plan = plan_campaign(
            CampaignSpec(time_scale=0.01, tech_node="7nm")
        )
        for unit in plan.units:
            assert unit.unit.kwargs["tech_node"] == "7nm"


class TestSpecRoundTrip:
    def test_node_survives_json_round_trip(self):
        spec = CampaignSpec(tech_node="7nm", seed=11)
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec
        assert again.tech_node == "7nm"

    def test_alias_canonicalized_at_construction(self):
        assert CampaignSpec(tech_node="28nm").tech_node == "xgene2-28"

    def test_default_spec_dict_has_no_node_key(self):
        assert "tech_node" not in CampaignSpec().to_dict()

    def test_unknown_node_is_a_scheduler_error(self):
        with pytest.raises(SchedulerError) as excinfo:
            CampaignSpec(tech_node="3nm")
        assert "3nm" in str(excinfo.value)

    def test_empty_node_rejected(self):
        with pytest.raises(SchedulerError):
            CampaignSpec(tech_node="")


class TestScaledPlans:
    def test_node_campaign_plans_on_the_node_grid(self):
        campaign = Campaign(time_scale=0.01, tech_node="7nm")
        node = get_node("7nm")
        for plan in campaign.plans:
            point = plan.point
            assert point.pmd_mv <= node.pmd_nominal_mv
            assert point.pmd_mv >= node.floor_mv
            assert (node.pmd_nominal_mv - point.pmd_mv) % 5 == 0
            assert point.freq_mhz % node.freq_step_mhz == 0

    def test_scaled_point_is_identity_on_the_anchor(self):
        node = get_node("xgene2-28")
        campaign = Campaign(time_scale=0.01)
        for plan in campaign.plans:
            assert node.scaled_point(plan.point) is plan.point

    def test_seven_nm_table3_points(self):
        node = get_node("7nm")
        campaign = Campaign(time_scale=0.01, tech_node="7nm")
        points = [
            (p.point.freq_mhz, p.point.pmd_mv, p.point.soc_mv)
            for p in campaign.plans
        ]
        assert points == [
            (3600, 675, 655),
            (3600, 640, 640),
            (3600, 635, 635),
            (1350, 545, 655),
        ]
        assert node.nominal_freq_mhz == 3600


class TestNodeRun:
    def test_seven_nm_run_exits_zero(self, tmp_path):
        outdir = str(tmp_path / "7nm")
        argv = ["run", outdir, "--seed", "2023", "--time-scale", "0.01"]
        assert main(argv + ["--node", "7nm"]) == 0
        with open(os.path.join(outdir, "campaign.json")) as handle:
            sessions = json.load(handle)["sessions"]
        assert sorted(sessions) == [
            "session1", "session2", "session3", "session4",
        ]


class TestSweepNodeAxis:
    def test_default_sweep_hash_pinned(self):
        assert SweepSpec().config_hash == PRE_TECH_SWEEP_HASH

    def test_anchor_node_sweep_hashes_like_default(self):
        assert SweepSpec(nodes=("28nm",)).config_hash == PRE_TECH_SWEEP_HASH

    def test_nodes_canonicalized_and_round_tripped(self):
        spec = SweepSpec(nodes=("28nm", "7nm"))
        assert spec.nodes == ("xgene2-28", "7nm")
        again = SweepSpec.from_dict(spec.to_dict())
        assert again.config_hash == spec.config_hash

    def test_duplicate_nodes_rejected(self):
        from repro.errors import CodecError

        with pytest.raises(CodecError):
            SweepSpec(nodes=("7nm", "7nm"))

    def test_default_cell_labels_unchanged(self):
        spec = SweepSpec(
            codecs=("parity",),
            points=((980, 950),),
            workloads=("CG",),
            strikes=16,
        )
        (cell,) = sweep_cells(spec)
        assert cell.label == "parity-980-950-CG"
        payload = run_cell(cell)
        assert "node" not in payload

    def test_node_cells_labeled_and_scaled(self):
        spec = SweepSpec(
            codecs=("parity",),
            points=((980, 950),),
            workloads=("CG",),
            strikes=16,
            nodes=("xgene2-28", "7nm"),
        )
        labels = {c.label: c for c in sweep_cells(spec)}
        assert set(labels) == {
            "parity-980-950-CG",
            "parity-7nm-675-655-CG",
        }
        seven = labels["parity-7nm-675-655-CG"]
        assert (seven.pmd_mv, seven.soc_mv) == (675, 655)
        payload = run_cell(seven)
        assert payload["node"] == "7nm"
        assert json.dumps(payload)  # stays JSON-shaped for the store
