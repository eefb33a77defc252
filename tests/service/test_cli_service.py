"""The serve / submit / status / cancel CLI verbs."""

import json
import os
import time

import pytest

from repro.cli import EXIT_SCHEDULER_BUSY, EXIT_STRICT_FAILURES, main
from repro.scheduler import CampaignSpec
from repro.service import jobs_dir, results_dir, status_path

from .conftest import TIME_SCALE

SPEC_ARGS = ["--seed", "9", "--time-scale", str(TIME_SCALE)]
SPEC = CampaignSpec(seed=9, time_scale=TIME_SCALE)


class TestSubmit:
    def test_drops_an_atomic_job_file(self, tmp_path, capsys):
        root = str(tmp_path / "root")
        assert main(["submit", root, *SPEC_ARGS]) == 0
        out = capsys.readouterr().out
        assert f"submitted {SPEC.submission_id}" in out
        path = os.path.join(jobs_dir(root), f"job-{SPEC.submission_id}.json")
        with open(path) as handle:
            assert CampaignSpec.from_json(handle.read()) == SPEC

    def test_spec_file_wins_over_flags(self, tmp_path, capsys):
        root = str(tmp_path / "root")
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(CampaignSpec(seed=77, time_scale=0.5).to_json())
        assert main(["submit", root, "--spec", str(spec_file)]) == 0
        (name,) = [
            n
            for n in os.listdir(jobs_dir(root))
            if n.endswith(".json")
        ]
        with open(os.path.join(jobs_dir(root), name)) as handle:
            assert json.load(handle)["seed"] == 77

    def test_busy_service_exits_5_without_queueing(self, tmp_path, capsys):
        root = str(tmp_path / "root")
        os.makedirs(root)
        with open(status_path(root), "w") as handle:
            json.dump(
                {
                    "state": "serving",
                    "updated_unix": time.time(),
                    "capacity": 4,
                    "queued_units": 4,
                },
                handle,
            )
        assert main(["submit", root, *SPEC_ARGS]) == EXIT_SCHEDULER_BUSY
        assert "busy" in capsys.readouterr().err
        assert not os.path.exists(
            os.path.join(jobs_dir(root), f"job-{SPEC.submission_id}.json")
        )


class TestCancel:
    def test_drops_a_cancel_job(self, tmp_path, capsys):
        root = str(tmp_path / "root")
        assert main(["cancel", root, "sub-feedfacefeed"]) == 0
        (name,) = os.listdir(jobs_dir(root))
        with open(os.path.join(jobs_dir(root), name)) as handle:
            assert json.load(handle) == {"cancel": "sub-feedfacefeed"}


class TestStatus:
    def test_no_snapshot_fails_readably(self, tmp_path, capsys):
        assert main(["status", str(tmp_path)]) == 1
        assert "serve" in capsys.readouterr().err


class TestSubmitWait:
    """--wait keys on failures.json, the last artifact assembly writes."""

    def _assembled(self, tmp_path, failures=None):
        root = str(tmp_path / "root")
        outdir = results_dir(root, SPEC.submission_id)
        os.makedirs(outdir)
        with open(os.path.join(outdir, "campaign.json"), "w") as handle:
            handle.write("{}")
        if failures is not None:
            with open(os.path.join(outdir, "failures.json"), "w") as handle:
                handle.write(failures)
        return root

    def test_campaign_json_alone_is_not_done(self, tmp_path, capsys):
        root = self._assembled(tmp_path)
        assert main(["submit", root, *SPEC_ARGS, "--wait", "0.3"]) == 1
        captured = capsys.readouterr()
        assert "timed out" in captured.err
        assert "complete" not in captured.out

    def test_failed_units_exit_3(self, tmp_path):
        root = self._assembled(tmp_path, failures='{"ok": false}')
        assert (
            main(["submit", root, *SPEC_ARGS, "--wait", "1"])
            == EXIT_STRICT_FAILURES
        )

    def test_unreadable_failures_report_exits_1(self, tmp_path, capsys):
        root = self._assembled(tmp_path, failures="{torn")
        assert main(["submit", root, *SPEC_ARGS, "--wait", "1"]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestServeFlow:
    """submit -> serve --idle-exit -> status, one shared flight."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("cli-serve") / "root")
        assert main(["submit", root, *SPEC_ARGS]) == 0
        assert (
            main(
                [
                    "serve",
                    root,
                    "--workers",
                    "2",
                    "--poll",
                    "0.05",
                    "--idle-exit",
                    "0.2",
                    "--broker-id",
                    "broker-cli",
                ]
            )
            == 0
        )
        return root

    def test_campaign_assembled(self, root):
        outdir = results_dir(root, SPEC.submission_id)
        assert os.path.exists(os.path.join(outdir, "campaign.json"))
        assert os.path.exists(os.path.join(outdir, "manifest.json"))

    def test_status_human_output(self, root, capsys):
        assert main(["status", root]) == 0
        out = capsys.readouterr().out
        assert "broker broker-cli" in out
        assert SPEC.submission_id in out
        assert "complete" in out
        assert "store: epochs [broker-cli=1]" in out
        assert "0 quarantined" in out

    def test_status_json_output(self, root, capsys):
        assert main(["status", root, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["broker"] == "broker-cli"
        assert status["assembled"] == [SPEC.submission_id]
        assert status["epoch"] == 1
        assert status["store"]["epochs"] == {"broker-cli": 1}
        assert status["store"]["quarantined"] == 0

    def test_submit_wait_returns_immediately_when_done(self, root, capsys):
        # The campaign is already assembled: --wait must see the
        # existing failures.json and report success without a timeout.
        assert main(["submit", root, *SPEC_ARGS, "--wait", "5"]) == 0
        assert "complete" in capsys.readouterr().out


class TestStoreChaosFlag:
    def test_bad_spec_fails_readably(self, tmp_path, capsys):
        root = str(tmp_path / "root")
        assert (
            main(["serve", root, "--store-chaos", '{"torn": "nope"}'])
            == 1
        )
        assert "error:" in capsys.readouterr().err

    def test_chaos_serve_still_assembles(self, tmp_path):
        root = str(tmp_path / "root")
        assert main(["submit", root, *SPEC_ARGS]) == 0
        args = [
            "serve", root,
            "--poll", "0.05",
            "--idle-exit", "0.2",
            "--store-chaos", '{"transient_errno": [0], "torn_write": [1]}',
        ]
        assert main(args) == 0
        outdir = results_dir(root, SPEC.submission_id)
        assert os.path.exists(os.path.join(outdir, "campaign.json"))
