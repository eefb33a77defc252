"""serve --validate: automatic post-job gating of assembled campaigns."""

import json
import os

import pytest

from repro.scheduler import CampaignSpec
from repro.service import results_dir, status_path
from repro.validate.postjob import postjob_report

from .conftest import TIME_SCALE, make_service
from .test_service import drop_job


@pytest.fixture(scope="module")
def validated(tmp_path_factory):
    root = tmp_path_factory.mktemp("validate") / "root"
    spec = CampaignSpec(time_scale=TIME_SCALE)
    service = make_service(
        root, workers=2, idle_exit_s=0.2, validate=True
    )
    drop_job(root, spec)
    assert service.serve() == 0
    service.journal.close()
    return str(root), spec


class TestValidationReport:
    def test_report_written_and_green(self, validated):
        root, spec = validated
        path = os.path.join(
            results_dir(root, spec.submission_id), "validation.json"
        )
        with open(path) as handle:
            report = json.load(handle)
        assert report["schema"] == 1
        assert report["ok"] is True
        names = [gate["gate"] for gate in report["gates"]]
        assert "postjob/roundtrip" in names
        assert "postjob/invariants" in names
        assert any(name.startswith("postjob/upsets/") for name in names)
        assert all(gate["ok"] for gate in report["gates"])

    def test_status_carries_the_verdict(self, validated):
        root, spec = validated
        with open(status_path(root)) as handle:
            status = json.load(handle)
        assert status["validation"] == {spec.submission_id: True}


class TestValidationOff:
    def test_no_report_without_the_flag(self, tmp_path):
        root = tmp_path / "root"
        spec = CampaignSpec(time_scale=TIME_SCALE)
        service = make_service(root, workers=2, idle_exit_s=0.2)
        drop_job(root, spec)
        assert service.serve() == 0
        service.journal.close()
        assert not os.path.exists(
            os.path.join(
                results_dir(str(root), spec.submission_id), "validation.json"
            )
        )
        with open(status_path(str(root))) as handle:
            assert json.load(handle)["validation"] == {}


@pytest.fixture(scope="module")
def validated_7nm(tmp_path_factory):
    # At this seed and scale the 28 nm rate model puts session1's
    # Poisson band at [140, 260] around 7 nm's 25 upsets.
    root = tmp_path_factory.mktemp("validate7nm") / "root"
    spec = CampaignSpec(seed=7, time_scale=0.05, tech_node="7nm")
    service = make_service(
        root, workers=2, idle_exit_s=0.2, validate=True
    )
    drop_job(root, spec)
    assert service.serve() == 0
    service.journal.close()
    folder = results_dir(str(root), spec.submission_id)
    with open(os.path.join(folder, "campaign.json")) as handle:
        campaign = json.load(handle)
    with open(os.path.join(folder, "validation.json")) as handle:
        report = json.load(handle)
    return campaign, report


def _with_points_of(campaign: dict, node_name: str) -> dict:
    """*campaign* with every session's point moved onto another node."""
    from repro.harness.session import TABLE2_SESSION_PLANS
    from repro.tech import get_node

    node = get_node(node_name)
    plans = {plan.label: plan for plan in TABLE2_SESSION_PLANS}
    moved = json.loads(json.dumps(campaign))
    for label, session in moved["sessions"].items():
        point = node.scaled_point(plans[label].point)
        session["plan"]["point"].update(
            freq_mhz=point.freq_mhz, pmd_mv=point.pmd_mv, soc_mv=point.soc_mv
        )
    return moved


class TestNodeAwareGate:
    def test_served_7nm_job_validates(self, validated_7nm):
        _, report = validated_7nm
        assert report["ok"] is True, [
            g for g in report["gates"] if not g["ok"]
        ]
        upsets = [
            g for g in report["gates"] if g["gate"].startswith("postjob/upsets/")
        ]
        assert len(upsets) == 4

    def test_28nm_model_on_7nm_output_fails(self, validated_7nm):
        campaign, _ = validated_7nm
        report = postjob_report(_with_points_of(campaign, "xgene2-28"))
        assert report["ok"] is False
        failed = {g["gate"] for g in report["gates"] if not g["ok"]}
        assert "postjob/upsets/session1" in failed

    def test_points_of_no_registered_node_fail_one_gate(self, validated_7nm):
        campaign, _ = validated_7nm
        foreign = json.loads(json.dumps(campaign))
        foreign["sessions"]["session1"]["plan"]["point"]["pmd_mv"] += 1
        report = postjob_report(foreign)
        failed = [g["gate"] for g in report["gates"] if not g["ok"]]
        assert failed == ["postjob/node"]
        assert not any(
            g["gate"].startswith("postjob/upsets/") for g in report["gates"]
        )
