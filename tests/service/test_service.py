"""CampaignService: job scanning, backpressure, recovery, assembly."""

import json
import os
import time

import pytest

from repro.cli import main
from repro.errors import SchedulerBusy
from repro.scheduler import CampaignSpec
from repro.service import (
    STATUS_STALE_S,
    accepted_dir,
    check_backpressure,
    jobs_dir,
    rejected_dir,
    results_dir,
    status_path,
)

from .conftest import TIME_SCALE, make_service


def drop_job(root, spec, name=None):
    path = os.path.join(jobs_dir(root), name or f"job-{spec.submission_id}.json")
    with open(path, "w") as handle:
        handle.write(spec.to_json())
    return path


class TestSubmitSpec:
    def test_queues_and_persists_acceptance(self, service):
        spec = CampaignSpec(time_scale=TIME_SCALE)
        submission = service.submit_spec(spec)
        assert service.broker.pending_count() == 4
        accepted = os.path.join(
            accepted_dir(service.root), f"{submission.submission_id}.json"
        )
        with open(accepted) as handle:
            assert CampaignSpec.from_json(handle.read()) == spec

    def test_resubmit_dedupes(self, service):
        spec = CampaignSpec(time_scale=TIME_SCALE)
        first = service.submit_spec(spec)
        again = service.submit_spec(spec)
        assert again is first
        assert again.deduped == 1
        assert service.broker.pending_count() == 4


class TestScanJobs:
    def test_consumes_a_valid_job(self, service):
        spec = CampaignSpec(time_scale=TIME_SCALE)
        path = drop_job(service.root, spec)
        assert service.scan_jobs_once() == 1
        assert not os.path.exists(path)
        assert service.broker.pending_count() == 4

    def test_malformed_json_is_rejected_with_diagnosis(self, service):
        path = os.path.join(jobs_dir(service.root), "job-bad.json")
        with open(path, "w") as handle:
            handle.write("{torn")
        assert service.scan_jobs_once() == 1
        rejected = os.path.join(rejected_dir(service.root), "job-bad.json")
        assert os.path.exists(rejected)
        with open(f"{rejected}.error.txt") as handle:
            assert "unreadable" in handle.read()
        assert service.broker.pending_count() == 0

    def test_unknown_spec_key_is_rejected(self, service):
        path = os.path.join(jobs_dir(service.root), "job-typo.json")
        with open(path, "w") as handle:
            json.dump({"timescale": 0.01}, handle)
        service.scan_jobs_once()
        error = os.path.join(
            rejected_dir(service.root), "job-typo.json.error.txt"
        )
        with open(error) as handle:
            assert "timescale" in handle.read()

    def test_cancel_job_body(self, service):
        spec = CampaignSpec(time_scale=TIME_SCALE)
        submission = service.submit_spec(spec)
        path = os.path.join(jobs_dir(service.root), "cancel-1.json")
        with open(path, "w") as handle:
            json.dump({"cancel": submission.submission_id}, handle)
        assert service.scan_jobs_once() == 1
        assert not os.path.exists(path)
        assert service.broker.pending_count() == 0
        assert service.broker.submission(submission.submission_id).cancelled

    def test_cancel_unknown_submission_is_rejected(self, service):
        path = os.path.join(jobs_dir(service.root), "cancel-ghost.json")
        with open(path, "w") as handle:
            json.dump({"cancel": "sub-ghost"}, handle)
        service.scan_jobs_once()
        assert os.path.exists(
            os.path.join(rejected_dir(service.root), "cancel-ghost.json")
        )

    def test_busy_leaves_the_job_in_place(self, tmp_path):
        # capacity 4: the first spec fills the queue; the second stays
        # in jobs/ (the file queue IS the overflow buffer) and scanning
        # stops so submission order is preserved.
        service = make_service(tmp_path / "root", capacity=4)
        first = CampaignSpec(time_scale=TIME_SCALE)
        second = CampaignSpec(time_scale=TIME_SCALE / 2)
        drop_job(service.root, first, name="a.json")
        overflow = drop_job(service.root, second, name="b.json")
        assert service.scan_jobs_once() == 1
        assert os.path.exists(overflow)
        assert service.broker.pending_count() == 4
        service.journal.close()


class TestBackpressure:
    def test_missing_status_passes(self, tmp_path):
        check_backpressure(str(tmp_path))

    def _status(self, root, **overrides):
        status = {
            "state": "serving",
            "updated_unix": time.time(),
            "capacity": 8,
            "queued_units": 0,
        }
        status.update(overrides)
        os.makedirs(root, exist_ok=True)
        with open(status_path(root), "w") as handle:
            json.dump(status, handle)

    def test_room_passes(self, tmp_path):
        root = str(tmp_path)
        self._status(root, queued_units=4)
        check_backpressure(root, incoming_units=4)

    def test_full_queue_raises(self, tmp_path):
        root = str(tmp_path)
        self._status(root, queued_units=5)
        with pytest.raises(SchedulerBusy, match="capacity"):
            check_backpressure(root, incoming_units=4)

    def test_stale_snapshot_passes(self, tmp_path):
        # A dead broker must not wedge submissions forever: its last
        # snapshot ages out and the job file just waits in jobs/.
        root = str(tmp_path)
        self._status(
            root,
            queued_units=8,
            updated_unix=time.time() - STATUS_STALE_S - 1,
        )
        check_backpressure(root)

    def test_stopped_broker_passes(self, tmp_path):
        root = str(tmp_path)
        self._status(root, queued_units=8, state="stopped")
        check_backpressure(root)


class TestRecovery:
    def test_resubmits_accepted_unassembled(self, service, tmp_path):
        spec = CampaignSpec(time_scale=TIME_SCALE)
        sid = spec.submission_id
        with open(
            os.path.join(accepted_dir(service.root), f"{sid}.json"), "w"
        ) as handle:
            handle.write(spec.to_json())
        assert service.recover() == 1
        assert service.broker.pending_count() == 4

    def _accept_with_artifacts(self, service, *names):
        spec = CampaignSpec(time_scale=TIME_SCALE)
        sid = spec.submission_id
        with open(
            os.path.join(accepted_dir(service.root), f"{sid}.json"), "w"
        ) as handle:
            handle.write(spec.to_json())
        outdir = results_dir(service.root, sid)
        os.makedirs(outdir)
        for name in names:
            with open(os.path.join(outdir, name), "w") as handle:
                handle.write("{}")
        return sid

    def test_skips_already_assembled(self, service):
        # failures.json is assembly's last write: with it on disk, the
        # submission is done.
        sid = self._accept_with_artifacts(
            service, "campaign.json", "failures.json"
        )
        assert service.recover() == 0
        assert service.broker.pending_count() == 0
        assert sid in service.status_dict()["assembled"]

    def test_resubmits_half_assembled(self, service):
        # Killed after campaign.json but before failures.json: the
        # submission is not done, so recovery resubmits it.
        sid = self._accept_with_artifacts(service, "campaign.json")
        assert service.recover() == 1
        assert service.broker.pending_count() == 4
        assert sid not in service.status_dict()["assembled"]

    def test_restart_finishes_a_half_assembled_submission(self, tmp_path):
        root = str(tmp_path / "root")
        spec = CampaignSpec(seed=5, time_scale=TIME_SCALE)
        first = make_service(root, idle_exit_s=0.2)
        drop_job(root, spec)
        assert first.serve() == 0
        outdir = results_dir(root, spec.submission_id)
        written = sorted(os.listdir(outdir))
        with open(os.path.join(outdir, "campaign.json"), "rb") as handle:
            campaign = handle.read()
        # Simulate a kill right after the first assembly write.
        for name in written:
            if name != "campaign.json":
                os.remove(os.path.join(outdir, name))
        assert make_service(root, idle_exit_s=0.2).serve() == 0
        assert sorted(os.listdir(outdir)) == written
        with open(os.path.join(outdir, "campaign.json"), "rb") as handle:
            assert handle.read() == campaign


class TestServeEndToEnd:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        """Drop a job, serve until idle-exit, return (root, sid)."""
        root = str(tmp_path_factory.mktemp("serve") / "root")
        spec = CampaignSpec(seed=5, time_scale=TIME_SCALE)
        service = make_service(root, workers=2, idle_exit_s=0.2)
        drop_job(root, spec)
        assert service.serve() == 0
        return root, spec

    def test_campaign_bytes_match_a_plain_run(self, served, tmp_path):
        root, spec = served
        plain = str(tmp_path / "plain")
        assert (
            main(
                [
                    "run",
                    plain,
                    "--seed",
                    str(spec.seed),
                    "--time-scale",
                    str(spec.time_scale),
                ]
            )
            == 0
        )
        with open(os.path.join(plain, "campaign.json"), "rb") as handle:
            expected = handle.read()
        assembled = os.path.join(
            results_dir(root, spec.submission_id), "campaign.json"
        )
        with open(assembled, "rb") as handle:
            assert handle.read() == expected

    def test_failures_report_is_clean(self, served):
        root, spec = served
        path = os.path.join(
            results_dir(root, spec.submission_id), "failures.json"
        )
        with open(path) as handle:
            report = json.load(handle)
        assert report["ok"] is True
        assert report["failed_units"] == {}

    def test_manifest_pins_the_spec_identity(self, served):
        root, spec = served
        path = os.path.join(
            results_dir(root, spec.submission_id), "manifest.json"
        )
        with open(path) as handle:
            manifest = json.load(handle)
        assert manifest["config_hash"] == spec.config_hash()
        assert manifest["seed"] == spec.seed
        assert manifest["time_scale"] == spec.time_scale

    def test_final_status_is_stopped(self, served):
        root, _ = served
        with open(status_path(root)) as handle:
            status = json.load(handle)
        assert status["state"] == "stopped"
        assert status["queued_units"] == 0
        (entry,) = status["submissions"]
        assert entry["units"] == {"done": 4}

    def test_second_serve_recovers_and_exits_idle(self, served):
        # Restarting on a finished root must neither re-fly anything
        # nor wedge: the assembled submission is recognized, the queue
        # stays empty, and idle-exit fires.
        root, spec = served
        service = make_service(root, idle_exit_s=0.1, broker_id="broker-b")
        assembled = os.path.join(
            results_dir(root, spec.submission_id), "campaign.json"
        )
        before = os.path.getmtime(assembled)
        assert service.serve() == 0
        assert os.path.getmtime(assembled) == before


class TestChaosServe:
    """serve with --store-chaos: the headline robustness criterion."""

    CHAOS = (
        '{"torn_write": [0], "transient_errno": [1], "corrupt_commit": [3]}'
    )

    @pytest.fixture(scope="class")
    def chaos_served(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("chaos-serve") / "root")
        spec = CampaignSpec(seed=5, time_scale=TIME_SCALE)
        service = make_service(
            root, workers=2, idle_exit_s=0.3, store_chaos=self.CHAOS
        )
        drop_job(root, spec)
        assert service.serve() == 0
        return root, spec, service

    def test_campaign_bytes_match_a_plain_run(
        self, chaos_served, tmp_path
    ):
        root, spec, _ = chaos_served
        plain = str(tmp_path / "plain")
        args = [
            "run", plain,
            "--seed", str(spec.seed),
            "--time-scale", str(spec.time_scale),
        ]
        assert main(args) == 0
        with open(os.path.join(plain, "campaign.json"), "rb") as handle:
            expected = handle.read()
        assembled = os.path.join(
            results_dir(root, spec.submission_id), "campaign.json"
        )
        with open(assembled, "rb") as handle:
            assert handle.read() == expected

    def test_corrupt_commits_were_quarantined_with_reasons(
        self, chaos_served
    ):
        root, _, service = chaos_served
        store = service.broker.store
        assert store.injected["torn_write"] == 1
        assert store.injected["corrupt_commit"] == 1
        reasons = store.quarantined_units()
        assert len(reasons) == 2
        assert {r["reason"] for r in reasons} == {
            "decode-error", "checksum-mismatch",
        }

    def test_status_snapshot_surfaces_store_health(self, chaos_served):
        root, _, service = chaos_served
        with open(status_path(root)) as handle:
            status = json.load(handle)
        assert status["epoch"] == 1
        store = status["store"]
        assert store["epochs"] == {"broker-test": 1}
        assert store["quarantined"] == 2
        assert store["retries"] >= 1
        assert store["fenced"] == 0
