"""The repro-campaign CLI."""

import json
import os
import shlex
from contextlib import contextmanager

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.errors import CampaignInterrupted
from repro.experiments import registry


@pytest.fixture(scope="module")
def stored_campaign(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("cli") / "run1")
    assert main(["run", outdir, "--seed", "5", "--time-scale", "0.02"]) == 0
    return outdir


class TestRun:
    def test_artifacts_written(self, stored_campaign, capsys):
        assert os.path.exists(os.path.join(stored_campaign, "campaign.json"))
        assert os.path.exists(os.path.join(stored_campaign, "session1.dmesg"))

    def test_manifest_always_written(self, stored_campaign):
        # Run bookkeeping is always on, telemetry or not.
        assert os.path.exists(os.path.join(stored_campaign, "manifest.json"))


class TestAnalyze:
    def test_summary(self, stored_campaign, capsys):
        assert main(["analyze", stored_campaign]) == 0
        out = capsys.readouterr().out
        assert "Campaign summary" in out
        assert "session1" in out

    def test_table2(self, stored_campaign, capsys):
        assert main(["analyze", stored_campaign, "--artifact", "table2"]) == 0
        assert "Neutron Beam Time Sessions" in capsys.readouterr().out

    def test_fig11(self, stored_campaign, capsys):
        assert main(["analyze", stored_campaign, "--artifact", "fig11"]) == 0
        assert "FIT per category" in capsys.readouterr().out

    def test_unknown_artifact_fails(self, stored_campaign, capsys):
        assert main(["analyze", stored_campaign, "--artifact", "fig99"]) == 2


class TestExport:
    def test_csvs_written(self, stored_campaign, capsys):
        assert main(["export", stored_campaign]) == 0
        for name in ("summary", "table2", "fig8", "fig11"):
            assert os.path.exists(
                os.path.join(stored_campaign, f"{name}.csv")
            )


class TestReport:
    def test_report_written(self, stored_campaign, capsys):
        assert main(["report", stored_campaign]) == 0
        path = os.path.join(stored_campaign, "REPORT.md")
        assert os.path.exists(path)
        assert open(path).read().startswith("# Radiation campaign report")


class TestStats:
    def test_console_renders_manifest(self, stored_campaign, capsys):
        assert main(["stats", stored_campaign]) == 0
        out = capsys.readouterr().out
        assert "Run manifest" in out
        assert "seed         5" in out

    def test_json_is_the_manifest(self, stored_campaign, capsys):
        assert main(["stats", stored_campaign, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 5
        assert data["time_scale"] == 0.02
        assert data["config_hash"]

    def test_prometheus_without_telemetry_fails_readably(
        self, stored_campaign, capsys
    ):
        # The module-scoped run flew without --telemetry: no metrics.
        assert main(["stats", stored_campaign, "--format", "prometheus"]) == 1
        assert "--telemetry" in capsys.readouterr().err


class TestTelemetryRoundTrip:
    @pytest.fixture(scope="class")
    def telemetry_run(self, tmp_path_factory):
        outdir = str(tmp_path_factory.mktemp("cli-telemetry") / "run1")
        assert (
            main(
                [
                    "run", outdir,
                    "--seed", "5",
                    "--time-scale", "0.02",
                    "--telemetry",
                ]
            )
            == 0
        )
        return outdir

    def test_run_prints_summary(self, telemetry_run, capsys):
        # Re-render from disk; the fixture's own output is not captured
        # per-test, but `stats` replays the same summary.
        assert main(["stats", telemetry_run]) == 0
        out = capsys.readouterr().out
        assert "Metrics" in out
        assert "injector.events" in out
        assert "session.flown" in out
        assert "Spans" in out

    def test_campaign_bytes_unchanged_by_telemetry(
        self, telemetry_run, stored_campaign
    ):
        with open(os.path.join(telemetry_run, "campaign.json")) as f:
            with_telemetry = f.read()
        with open(os.path.join(stored_campaign, "campaign.json")) as f:
            without = f.read()
        assert with_telemetry == without

    def test_prometheus_export(self, telemetry_run, capsys):
        assert main(["stats", telemetry_run, "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_session_flown_total counter" in out
        assert "repro_injector_events_total" in out

    def test_full_round_trip(self, telemetry_run, capsys):
        assert main(["analyze", telemetry_run]) == 0
        assert "Campaign summary" in capsys.readouterr().out
        assert main(["export", telemetry_run]) == 0
        assert os.path.exists(os.path.join(telemetry_run, "table2.csv"))
        assert main(["report", telemetry_run]) == 0
        assert os.path.exists(os.path.join(telemetry_run, "REPORT.md"))
        capsys.readouterr()  # drain export/report chatter
        assert main(["stats", telemetry_run, "--format", "json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["stages"]  # cli.fly etc. were timed
        assert manifest["spans"]


class TestErrorHandling:
    def test_missing_outdir_fails_readably(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere")
        for sub in ("analyze", "export", "report", "stats"):
            assert main([sub, missing]) == 1, sub
            err = capsys.readouterr().err
            assert err.startswith("error:"), sub
            assert "Traceback" not in err, sub

    def test_corrupt_campaign_fails_readably(self, tmp_path, capsys):
        outdir = tmp_path / "corrupt"
        outdir.mkdir()
        (outdir / "campaign.json").write_text("{not json at all")
        assert main(["analyze", str(outdir)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_manifest_fails_readably(self, tmp_path, capsys):
        outdir = tmp_path / "corrupt-manifest"
        outdir.mkdir()
        (outdir / "manifest.json").write_text('{"schema": 99}')
        assert main(["stats", str(outdir)]) == 1
        assert "schema" in capsys.readouterr().err


class TestParser:
    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_stats_format_rejected(self, stored_campaign):
        with pytest.raises(SystemExit):
            main(["stats", stored_campaign, "--format", "xml"])

    @pytest.mark.parametrize(
        "entry, argv",
        [
            (main, ["run", "OUT"]),
            (main, ["explore", "OUT"]),
            (main, ["serve", "ROOT"]),
            (registry.main, ["table2"]),
        ],
        ids=["run", "explore", "serve", "repro-experiment"],
    )
    def test_negative_workers_is_a_usage_error(
        self, entry, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            entry([*argv, "--workers", "-1"])
        assert exited.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].endswith(
            "error: argument --workers: must be nonnegative "
            "(0 or 1 runs serially), got -1"
        )
        assert not os.listdir(tmp_path)  # refused before touching OUT


@contextmanager
def _signalled():
    """Stands in for ``_interruptible``: the signal lands at once."""
    raise CampaignInterrupted("received signal 15")
    yield  # pragma: no cover - never reached


def _parse_hint(err):
    """The resume hint printed on interrupt, parsed back by the CLI."""
    lines = err.splitlines()
    at = next(i for i, line in enumerate(lines) if line.endswith("resume with:"))
    argv = shlex.split(lines[at + 1])
    assert argv[0] == "repro-campaign"
    return build_parser().parse_args(argv[1:])


class TestResumeHints:
    """A resume hint must survive the shell, spaces and all."""

    def test_run_hint_round_trips(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_interruptible", _signalled)
        outdir = str(tmp_path / "my runs" / "a")
        argv = ["run", outdir, "--seed", "9", "--time-scale", "0.01",
                "--node", "7nm"]
        assert main(argv) == cli.EXIT_INTERRUPTED
        hint = _parse_hint(capsys.readouterr().err)
        assert hint.command == "run" and hint.resume
        assert hint.outdir == outdir
        assert (hint.seed, hint.time_scale, hint.node) == (9, 0.01, "7nm")

    def test_explore_hint_round_trips(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_interruptible", _signalled)
        outdir = str(tmp_path / "my sweeps" / "a")
        argv = ["explore", outdir, "--name", "night sweep",
                "--codecs", "parity,secded", "--points", "980:950,790:950",
                "--workloads", "CG", "--strikes", "64", "--interleave", "2",
                "--node", "xgene2-28,7nm", "--seed", "7"]
        assert main(argv) == cli.EXIT_INTERRUPTED
        hint = _parse_hint(capsys.readouterr().err)
        assert hint.command == "explore" and hint.resume
        assert hint.outdir == outdir
        original = cli._sweep_spec_from_args(build_parser().parse_args(argv))
        resumed = cli._sweep_spec_from_args(hint)
        assert resumed.submission_id == original.submission_id
        assert resumed == original  # the display name survives too
