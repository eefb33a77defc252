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
import time

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


def _result(root, seed):
    sid = CampaignSpec(seed=seed, time_scale=float(TIME_SCALE)).submission_id
    return os.path.join(results_dir(root, sid), "campaign.json")


def _assembled(root, seed):
    with open(_result(root, seed), "rb") as f:
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


def _pool_workers(pid):
    """Live pids forked by *pid* that still run its command line."""
    def read(path):
        with open(path, "rb") as handle:
            return handle.read()

    cmdline = read(f"/proc/{pid}/cmdline")
    workers = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            state, ppid = read(f"/proc/{entry}/stat").rsplit(b")", 1)[1].split()[:2]
            same = read(f"/proc/{entry}/cmdline") == cmdline
        except OSError:
            continue  # exited while we looked
        if int(ppid) == pid and state != b"Z" and same:
            workers.append(int(entry))
    return workers


def _wait_for(condition):
    deadline = time.monotonic() + cli_process.TIMEOUT_S
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads pool workers off /proc"
)
class TestWorkerSignal:
    def test_sigterm_to_one_worker_leaves_the_service_serving(
        self, tmp_path, plain_runs
    ):
        root = str(tmp_path / "root")
        _submit(root, BASELINE_SEED)
        proc = cli_process.spawn(_serve_argv(root, "broker-w"))
        try:
            _wait_for(lambda: os.path.exists(_result(root, BASELINE_SEED)))
            _wait_for(lambda: len(_pool_workers(proc.pid)) == 2)
            victim = _pool_workers(proc.pid)[0]
            os.kill(victim, signal.SIGTERM)
            _wait_for(lambda: victim not in _pool_workers(proc.pid))
            assert proc.poll() is None, proc.communicate()[1]
            with open(os.path.join(root, "status.json")) as handle:
                assert json.load(handle)["state"] == "serving"

            _submit(root, DRAIN_SEED)
            _wait_for(lambda: os.path.exists(_result(root, DRAIN_SEED)))
            respawned = _pool_workers(proc.pid)
            code, _, err = cli_process.signal_when(proc, lambda: True)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert code == EXIT_INTERRUPTED, err
        assert len(respawned) == 2 and victim not in respawned
        assert _assembled(root, DRAIN_SEED) == plain_runs[DRAIN_SEED]


def _running(pid):
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state = handle.read().rsplit(b")", 1)[1].split()[0]
    except OSError:
        return False
    return state != b"Z"


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads pool workers off /proc"
)
class TestOrphanedWorkers:
    def test_workers_exit_when_only_the_broker_is_killed(self, tmp_path):
        root = str(tmp_path / "root")
        _submit(root, BASELINE_SEED)
        proc = cli_process.spawn(_serve_argv(root, "broker-o"))
        try:
            _wait_for(lambda: len(_pool_workers(proc.pid)) == 2)
            workers = _pool_workers(proc.pid)
            proc.kill()  # the broker alone: its workers stay in the group
            proc.wait()
            deadline = time.monotonic() + 5.0
            while any(_running(pid) for pid in workers):
                assert time.monotonic() < deadline, (
                    f"pool workers {workers} outlived their broker"
                )
                time.sleep(0.05)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()


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
