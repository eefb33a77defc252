"""The resilient CLI surface: --resume, --strict, --chaos, exit codes."""

import json
import os
import shlex

import pytest

from repro.cli import EXIT_INTERRUPTED, EXIT_STRICT_FAILURES, main
from repro.errors import CampaignInterrupted
from repro.resilient import SupervisedExecutor
from repro.scheduler.store import decode_commit

from .. import cli_process

SCALE = ["--seed", "11", "--time-scale", "0.002"]


def read_bytes(outdir, name="campaign.json"):
    with open(os.path.join(outdir, name), "rb") as handle:
        return handle.read()


def commits_dir(outdir):
    return os.path.join(outdir, "scheduler", "commits")


def store_bytes(outdir):
    """``{path: bytes}`` of every file under OUTDIR/scheduler."""
    found = {}
    for folder, _, names in os.walk(os.path.join(outdir, "scheduler")):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                found[path] = handle.read()
    return found


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("cli-resilient") / "clean")
    assert main(["run", outdir] + SCALE) == 0
    return outdir


class TestJournalArtifacts:
    def test_every_run_is_journaled(self, clean_run):
        # Every unit is checkpointed as a verified store commit named by
        # its ``<hash12>/<label>`` id; no journal.jsonl is written.
        assert not os.path.exists(os.path.join(clean_run, "journal.jsonl"))
        names = sorted(os.listdir(commits_dir(clean_run)))
        assert [name.split("__", 1)[1] for name in names] == [
            "session1.json", "session2.json", "session3.json",
            "session4.json",
        ]
        assert len({name.split("__", 1)[0] for name in names}) == 1
        for name in names:
            record = decode_commit(read_bytes(commits_dir(clean_run), name))
            label = name.split("__", 1)[1][: -len(".json")]
            assert record["payload"]["key"] == label

    def test_quarantine_verb_reads_a_run_outdir(self, clean_run, capsys):
        capsys.readouterr()
        assert main(["quarantine", clean_run]) == 0
        assert capsys.readouterr().out == "0 unit(s) quarantined\n"

    def test_failures_json_written(self, clean_run):
        data = json.loads(read_bytes(clean_run, "failures.json"))
        assert data["ok"] is True
        assert [u["status"] for u in data["units"]] == ["ok"] * 4


class TestCrashAndResume:
    def test_crash_resume_byte_identical(self, tmp_path, clean_run, capsys):
        outdir = str(tmp_path / "crashed")
        chaos = json.dumps({"crash_after_units": 2})
        assert (
            main(["run", outdir, "--chaos", chaos] + SCALE)
            == EXIT_INTERRUPTED
        )
        err = capsys.readouterr().err
        assert "--resume" in err  # the hint tells the operator what to do
        assert not os.path.exists(os.path.join(outdir, "campaign.json"))
        assert len(os.listdir(commits_dir(outdir))) == 2

        assert main(["run", outdir, "--resume"] + SCALE) == 0
        out = capsys.readouterr().out
        assert "resumed 2 unit(s)" in out
        assert read_bytes(outdir) == read_bytes(clean_run)

    def test_resume_without_journal_errors(self, tmp_path, capsys):
        outdir = str(tmp_path / "nothing")
        assert main(["run", outdir, "--resume"] + SCALE) == 1
        assert "no checkpoints" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    def test_resume_with_other_seed_refuses(self, tmp_path, clean_run, capsys):
        outdir = str(tmp_path / "mismatch")
        chaos = json.dumps({"crash_after_units": 1})
        assert (
            main(["run", outdir, "--chaos", chaos] + SCALE)
            == EXIT_INTERRUPTED
        )
        capsys.readouterr()
        before = store_bytes(outdir)
        code = main(
            ["run", outdir, "--resume", "--seed", "12",
             "--time-scale", "0.002"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "different configuration" in err
        # Both hashes are named, and the refusal touched nothing.
        committed = os.listdir(commits_dir(outdir))[0].split("__")[0]
        assert committed in err
        assert store_bytes(outdir) == before

    def test_interrupt_before_first_commit_resumes_with_its_hint(
        self, tmp_path, clean_run, monkeypatch, capsys
    ):
        # The signal lands while the first unit flies: nothing is
        # committed yet, but the store exists, so the printed hint
        # resumes the whole campaign.
        def interrupted(self, units, on_result, telemetry=None):
            raise CampaignInterrupted("received signal 15")

        outdir = str(tmp_path / "early")
        with monkeypatch.context() as patch:
            patch.setattr(SupervisedExecutor, "map", interrupted)
            assert main(["run", outdir] + SCALE) == EXIT_INTERRUPTED
        assert os.listdir(commits_dir(outdir)) == []
        argv = cli_process.resume_argv(capsys.readouterr().err)
        assert main(argv) == 0
        assert read_bytes(outdir) == read_bytes(clean_run)

    def test_resume_takes_over_its_own_leases(self, tmp_path, clean_run):
        # The crashed run left the unfinished units leased under the
        # fixed broker id `run`; the resume owns them at once, clears
        # them as it commits, and fences the dead incarnation.
        outdir = str(tmp_path / "leased")
        chaos = json.dumps({"crash_after_units": 2})
        assert (
            main(["run", outdir, "--chaos", chaos] + SCALE)
            == EXIT_INTERRUPTED
        )
        leases = os.path.join(outdir, "scheduler", "leases")
        assert len(os.listdir(leases)) == 2
        assert main(["run", outdir, "--resume"] + SCALE) == 0
        assert os.listdir(leases) == []
        epochs = os.listdir(os.path.join(outdir, "scheduler", "epochs"))
        assert len(epochs) == 2
        assert read_bytes(outdir) == read_bytes(clean_run)

    def test_corrupted_commit_is_quarantined_and_reflown(
        self, tmp_path, clean_run, capsys
    ):
        outdir = str(tmp_path / "bitrot")
        chaos = json.dumps({"crash_after_units": 2})
        assert (
            main(["run", outdir, "--chaos", chaos] + SCALE)
            == EXIT_INTERRUPTED
        )
        # One bit flips in a commit's payload between crash and resume.
        name = sorted(os.listdir(commits_dir(outdir)))[0]
        path = os.path.join(commits_dir(outdir), name)
        raw = bytearray(read_bytes(commits_dir(outdir), name))
        at = raw.index(b'"edac_dmesg"') + len(b'"edac_dmesg": "')
        raw[at] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(raw)

        assert main(["run", outdir, "--resume"] + SCALE) == 0
        assert "resumed 1 unit(s)" in capsys.readouterr().out
        assert read_bytes(outdir) == read_bytes(clean_run)
        assert main(["quarantine", outdir, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["reason"] for r in records] == ["checksum-mismatch"]
        unit_id = name[: -len(".json")].replace("__", "/")
        assert records[0]["unit_id"] == unit_id


class TestRealSignal:
    def test_sigterm_then_resume_byte_identical(self, tmp_path, capsys):
        # A real SIGTERM once the store holds its first commit: exit
        # 143 with a resume hint, and the resumed campaign.json equals
        # an uninterrupted run's.
        flags = ["--seed", "2023", "--time-scale", "0.2"]
        outdir = str(tmp_path / "killed")

        def first_unit_committed():
            try:
                names = os.listdir(commits_dir(outdir))
            except OSError:
                return False
            return any(name.endswith(".json") for name in names)

        proc = cli_process.spawn(["run", outdir] + flags)
        code, _, err = cli_process.signal_when(proc, first_unit_committed)
        assert code == EXIT_INTERRUPTED, err
        assert not os.path.exists(os.path.join(outdir, "campaign.json"))

        argv = cli_process.resume_argv(err)
        assert "--resume" in argv
        assert main(argv) == 0
        assert "resumed" in capsys.readouterr().out
        reference = str(tmp_path / "uninterrupted")
        assert main(["run", reference] + flags) == 0
        assert read_bytes(outdir) == read_bytes(reference)


class TestFreshGuard:
    def test_rerun_without_resume_is_refused(self, tmp_path, capsys):
        # Forgetting --resume must not discard the store: a rerun of a
        # checkpointed outdir is refused before any checkpoint is lost.
        outdir = str(tmp_path / "guarded")
        assert main(["run", outdir] + SCALE) == 0
        before = store_bytes(outdir)
        capsys.readouterr()
        assert main(["run", outdir] + SCALE) == 1
        err = capsys.readouterr().err
        assert "--resume" in err and "--fresh" in err
        assert store_bytes(outdir) == before

    def test_fresh_discards_checkpoints_and_reruns(self, tmp_path, clean_run):
        outdir = str(tmp_path / "fresh")
        chaos = json.dumps({"crash_after_units": 2})
        assert (
            main(["run", outdir, "--chaos", chaos] + SCALE)
            == EXIT_INTERRUPTED
        )
        assert main(["run", outdir, "--fresh"] + SCALE) == 0
        assert read_bytes(outdir) == read_bytes(clean_run)

    def test_fresh_removes_what_the_old_run_wrote(self, tmp_path):
        # A session the --fresh run does not fly must not keep the old
        # run's capture beside the new campaign.json.
        outdir = str(tmp_path / "refly")
        assert main(["run", outdir] + SCALE) == 0
        chaos = json.dumps({"units": {"session2": ["fatal"]}})
        assert main(["run", outdir, "--fresh", "--chaos", chaos] + SCALE) == 0
        sessions = json.loads(read_bytes(outdir))["sessions"]
        captures = sorted(
            name[: -len(".dmesg")]
            for name in os.listdir(outdir)
            if name.endswith(".dmesg")
        )
        assert captures == sorted(sessions)
        assert captures == ["session1", "session3", "session4"]

    def test_resume_and_fresh_are_mutually_exclusive(self, tmp_path, capsys):
        outdir = str(tmp_path / "conflict")
        with pytest.raises(SystemExit):
            main(["run", outdir, "--resume", "--fresh"] + SCALE)
        assert "not allowed with" in capsys.readouterr().err


class TestChaosSurvival:
    def test_retried_faults_leave_artifacts_identical(
        self, tmp_path, clean_run, capsys
    ):
        outdir = str(tmp_path / "faulted")
        chaos = json.dumps({"units": {"session2": ["raise", "ok"]}})
        assert main(["run", outdir, "--chaos", chaos] + SCALE) == 0
        assert read_bytes(outdir) == read_bytes(clean_run)

    def test_chaos_file_spec(self, tmp_path, clean_run):
        spec = tmp_path / "chaos.json"
        spec.write_text(
            json.dumps({"units": {"session1": ["raise", "ok"]}})
        )
        outdir = str(tmp_path / "from-file")
        assert main(["run", outdir, "--chaos", str(spec)] + SCALE) == 0
        assert read_bytes(outdir) == read_bytes(clean_run)

    def test_invalid_chaos_spec_is_a_clean_error(self, tmp_path, capsys):
        outdir = str(tmp_path / "bad-spec")
        code = main(
            ["run", outdir, "--chaos", '{"units": {"s": ["explode"]}}']
            + SCALE
        )
        assert code == 1
        assert "unknown fault" in capsys.readouterr().err


class TestStrict:
    def test_quarantine_without_strict_exits_zero(self, tmp_path, capsys):
        outdir = str(tmp_path / "lenient")
        chaos = json.dumps({"units": {"session3": ["fatal"]}})
        assert main(["run", outdir, "--chaos", chaos] + SCALE) == 0
        captured = capsys.readouterr()
        assert "Work-unit supervision report" in captured.out
        assert "quarantined" in captured.err

    def test_quarantine_with_strict_exits_three(self, tmp_path, capsys):
        outdir = str(tmp_path / "strict")
        chaos = json.dumps({"units": {"session3": ["fatal"]}})
        code = main(
            ["run", outdir, "--chaos", chaos, "--strict"] + SCALE
        )
        assert code == EXIT_STRICT_FAILURES
        captured = capsys.readouterr()
        assert "session3" in captured.out  # the per-unit failure table
        failures = json.loads(read_bytes(outdir, "failures.json"))
        assert failures["ok"] is False
        quarantined = [
            u for u in failures["units"] if u["status"] == "quarantined"
        ]
        assert [u["key"] for u in quarantined] == ["session3"]
        assert quarantined[0]["failure_class"] == "sdc"

    def test_resume_reflies_a_quarantined_unit(self, tmp_path, clean_run):
        # A quarantined unit is never committed, so --resume flies it
        # again and completes the campaign.
        outdir = str(tmp_path / "retry-later")
        chaos = json.dumps({"units": {"session3": ["fatal"]}})
        assert main(["run", outdir, "--chaos", chaos] + SCALE) == 0
        assert len(os.listdir(commits_dir(outdir))) == 3
        assert main(["run", outdir, "--resume"] + SCALE) == 0
        assert read_bytes(outdir) == read_bytes(clean_run)
        failures = json.loads(read_bytes(outdir, "failures.json"))
        assert failures["ok"] is True
        assert [u["status"] for u in failures["units"]] == [
            "resumed", "resumed", "ok", "resumed",
        ]

    def test_strict_clean_run_exits_zero(self, tmp_path):
        outdir = str(tmp_path / "strict-ok")
        assert main(["run", outdir, "--strict"] + SCALE) == 0

    def test_manifest_command_reflies_the_chaos_run(self, tmp_path):
        # The manifest's command must re-fly the same run: a dropped
        # --chaos would record a clean four-session campaign instead.
        outdir = str(tmp_path / "chaos run")
        chaos = json.dumps({"units": {"session2": ["fatal"]}})
        assert main(["run", outdir, "--chaos", chaos] + SCALE) == 0
        command = json.loads(read_bytes(outdir, "manifest.json"))["command"]
        argv = shlex.split(command)
        assert argv[:3] == ["repro-campaign", "run", outdir]
        assert argv[argv.index("--chaos") + 1] == chaos

        again = str(tmp_path / "again")
        assert main(["run", again] + argv[3:]) == 0
        assert read_bytes(again) == read_bytes(outdir)
        failures = json.loads(read_bytes(again, "failures.json"))
        assert [
            u["key"] for u in failures["units"] if u["status"] == "quarantined"
        ] == ["session2"]


class TestSupervisionFlags:
    def test_retries_flag_bounds_the_budget(self, tmp_path, capsys):
        # Three transient faults with only one retry: quarantined.
        outdir = str(tmp_path / "budget")
        chaos = json.dumps(
            {"units": {"session1": ["raise", "raise", "raise"]}}
        )
        code = main(
            ["run", outdir, "--chaos", chaos, "--retries", "1", "--strict"]
            + SCALE
        )
        assert code == EXIT_STRICT_FAILURES

    def test_timeout_flag_reaches_the_policy(self, tmp_path):
        # A generous timeout that never fires: the run is just clean.
        outdir = str(tmp_path / "timeout")
        assert main(["run", outdir, "--timeout", "60"] + SCALE) == 0

    def test_resumed_run_writes_manifest(self, tmp_path, capsys):
        outdir = str(tmp_path / "manifest")
        chaos = json.dumps({"crash_after_units": 3})
        assert (
            main(["run", outdir, "--chaos", chaos] + SCALE)
            == EXIT_INTERRUPTED
        )
        assert main(["run", outdir, "--resume", "--telemetry"] + SCALE) == 0
        manifest = json.loads(read_bytes(outdir, "manifest.json"))
        assert manifest["executor"] == "supervised"
        counter_names = [
            c["name"] for c in manifest["metrics"]["counters"]
        ]
        assert "resilient.resumed_units" in counter_names
