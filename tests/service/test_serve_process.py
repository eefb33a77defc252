"""``serve`` as a real process: killed, drained, and fed a store fault storm.

Each test spawns ``repro-campaign serve`` through :mod:`tests.cli_process`
and signals it for real, so what a dead or drained broker leaves in the
store is exactly what the next broker has to pick up.  Every assembled
campaign is compared byte for byte with a plain ``run`` of its spec.
"""

import glob
import json
import os
import signal

import pytest

from repro.cli import EXIT_INTERRUPTED, main
from repro.scheduler import CampaignSpec, DirectoryStore
from repro.service import results_dir

from .. import cli_process

#: Long enough that a campaign's eight units outlive the first commit.
TIME_SCALE = "0.2"
BASELINE_SEED, URGENT_SEED, DRAIN_SEED = 2023, 7, 11


@pytest.fixture(scope="module")
def plain_runs(tmp_path_factory):
    """Seed -> the ``campaign.json`` bytes of a plain ``run``."""
    base = tmp_path_factory.mktemp("plain")
    refs = {}
    for seed in (BASELINE_SEED, URGENT_SEED, DRAIN_SEED):
        outdir = str(base / f"seed{seed}")
        args = ["run", outdir, "--seed", str(seed), "--time-scale", TIME_SCALE]
        assert main(args) == 0
        with open(os.path.join(outdir, "campaign.json"), "rb") as handle:
            refs[seed] = handle.read()
    return refs


def _submit(root, seed, *flags):
    args = ["submit", root, "--seed", str(seed), "--time-scale", TIME_SCALE]
    assert main([*args, *flags]) == 0


def _serve_argv(root, broker, *flags):
    return [
        "serve", root, "--workers", "2", "--poll", "0.05",
        "--broker-id", broker, *flags,
    ]


def _run_to_idle(argv):
    """Run a serving process until it exits; ``(code, stdout, stderr)``."""
    return cli_process.signal_when(
        cli_process.spawn([*argv, "--idle-exit", "0.5"]), lambda: False
    )


def _first_commit(root):
    commits = os.path.join(root, "scheduler", "commits")
    return lambda: os.path.isdir(commits) and bool(os.listdir(commits))


def _assembled(root, seed):
    sid = CampaignSpec(seed=seed, time_scale=float(TIME_SCALE)).submission_id
    with open(os.path.join(results_dir(root, sid), "campaign.json"), "rb") as f:
        return f.read()


def _journal_events(root, broker, event):
    path = os.path.join(root, "scheduler", f"journal-{broker}.jsonl")
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [r for r in records if r.get("event") == event]


class TestKilledBroker:
    def test_second_broker_takes_over_expired_leases(
        self, tmp_path, plain_runs
    ):
        root = str(tmp_path / "root")
        _submit(root, BASELINE_SEED, "--name", "baseline")
        _submit(root, URGENT_SEED, "--priority", "5", "--name", "urgent")
        flags = ("--lease-ttl", "1")
        proc = cli_process.spawn(_serve_argv(root, "broker-a", *flags))
        code, _, _ = cli_process.signal_when(
            proc, _first_commit(root), signal.SIGKILL, group=True
        )
        assert code == -signal.SIGKILL
        committed = DirectoryStore(
            os.path.join(root, "scheduler")
        ).committed_units()
        orphaned = set()
        for path in glob.glob(os.path.join(root, "scheduler", "leases", "*")):
            with open(path) as handle:
                lease = json.load(handle)
            if lease["unit_id"] not in committed:
                assert lease["owner"] == "broker-a"
                orphaned.add(lease["unit_id"])
        assert orphaned, "the kill left no live lease to take over"

        code, _, err = _run_to_idle(_serve_argv(root, "broker-b", *flags))
        assert code == 0, err
        taken = {e["unit"] for e in _journal_events(root, "broker-b", "lease")}
        assert orphaned <= taken
        assert _assembled(root, BASELINE_SEED) == plain_runs[BASELINE_SEED]
        assert _assembled(root, URGENT_SEED) == plain_runs[URGENT_SEED]


class TestDrain:
    def test_sigterm_exits_143_and_the_hint_resumes(
        self, tmp_path, plain_runs
    ):
        root = str(tmp_path / "root")
        _submit(root, DRAIN_SEED)
        proc = cli_process.spawn(_serve_argv(root, "broker-drain"))
        code, _, err = cli_process.signal_when(proc, _first_commit(root))
        assert code == EXIT_INTERRUPTED, err
        argv = cli_process.resume_argv(err)
        assert argv == ["serve", root]

        code, _, err = _run_to_idle(_serve_argv(root, "broker-drain"))
        assert code == 0, err
        assert _assembled(root, DRAIN_SEED) == plain_runs[DRAIN_SEED]


class TestStoreChaosStorm:
    CHAOS = (
        '{"torn_write": [0], "transient_errno": [1], '
        '"corrupt_commit": [2], "stale_read": [9]}'
    )

    def test_storm_quarantines_and_still_matches_a_plain_run(
        self, tmp_path, plain_runs, capsys
    ):
        root = str(tmp_path / "root")
        _submit(root, BASELINE_SEED, "--max-workers", "2")
        argv = _serve_argv(root, "chaos-a", "--store-chaos", self.CHAOS)
        code, _, err = _run_to_idle(argv)
        assert code == 0, err

        reasons = glob.glob(
            os.path.join(root, "scheduler", "quarantine", "*.reason.json")
        )
        assert len(reasons) >= 2
        for path in reasons:
            with open(path) as handle:
                reason = json.load(handle)
            assert reason["reason"], path
            assert reason["unit_id"], path

        capsys.readouterr()
        assert main(["status", root]) == 0
        out = capsys.readouterr().out
        assert "store: epochs [chaos-a=1]" in out
        assert f"{len(reasons)} quarantined" in out
        assert _assembled(root, BASELINE_SEED) == plain_runs[BASELINE_SEED]
