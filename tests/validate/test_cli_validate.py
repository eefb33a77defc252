"""The `repro-campaign validate` subcommand and the `stats` config-hash
mismatch regression."""

import json
import os
import shutil

import pytest

from repro.cli import EXIT_GATE_FAILURES, main
from repro.validate import OracleRegistry
from repro.validate.oracles import GOLDEN_DIR


class TestValidateCommand:
    def test_conformance_suite_passes_and_writes_report(
        self, tmp_path, capsys
    ):
        out = str(tmp_path / "conformance.json")
        code = main(["validate", "--suite", "conformance", "--out", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "conformance suite: PASS" in text
        assert f"wrote {out}" in text

        payload = json.loads(open(out).read())
        assert payload["ok"] is True
        assert payload["schema"] == 1
        assert [s["suite"] for s in payload["suites"]] == ["conformance"]
        # The report rides the telemetry exporters: metrics + spans.
        assert payload["metrics"]["counters"]
        assert any(
            s["name"] == "cli.validate" for s in payload["spans"]
        )

    def test_suites_repeatable_and_ordered(self, tmp_path, capsys):
        out = str(tmp_path / "conformance.json")
        code = main(
            [
                "validate",
                "--suite",
                "differential",
                "--suite",
                "conformance",
                "--out",
                out,
            ]
        )
        assert code == 0
        payload = json.loads(open(out).read())
        assert [s["suite"] for s in payload["suites"]] == [
            "differential",
            "conformance",
        ]

    def test_unmeasurable_artifact_fails_its_gate_not_the_run(
        self, tmp_path, capsys
    ):
        # At this scale the nominal session flies no SDC, so Fig. 11's
        # SDC multiplier has nothing to divide by.
        out = str(tmp_path / "conformance.json")
        code = main(
            [
                "validate",
                "--suite",
                "conformance",
                "--time-scale",
                "0.01",
                "--out",
                out,
            ]
        )
        assert code == EXIT_GATE_FAILURES
        assert "[FAIL] fig11/measure" in capsys.readouterr().out
        payload = json.loads(open(out).read())
        gates = {g["gate"]: g for g in payload["suites"][0]["gates"]}
        assert not gates["fig11/measure"]["ok"]
        assert "zero SDC FIT" in gates["fig11/measure"]["detail"]
        # Every other artifact was still measured and gated.
        assert gates["table1/total_capacity_bits"]["ok"]
        assert any(name.startswith("fig12/") for name in gates)

    def test_gate_failure_exits_4_and_names_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        golden = tmp_path / "golden"
        shutil.copytree(GOLDEN_DIR, golden)
        path = golden / "table1.json"
        data = json.loads(path.read_text())
        data["oracles"]["total_capacity_bits"]["expected"] = 12345
        path.write_text(json.dumps(data))

        from repro.validate import conformance as conformance_mod

        monkeypatch.setattr(
            conformance_mod,
            "default_registry",
            lambda: OracleRegistry(str(golden)),
        )
        out = str(tmp_path / "conformance.json")
        code = main(["validate", "--suite", "conformance", "--out", out])
        assert code == EXIT_GATE_FAILURES
        text = capsys.readouterr().out
        assert "validation: FAIL" in text
        assert "table1/total_capacity_bits" in text
        payload = json.loads(open(out).read())
        assert payload["ok"] is False


@pytest.fixture(scope="module")
def journaled_run(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("stats") / "run")
    assert main(["run", outdir, "--seed", "5", "--time-scale", "0.002"]) == 0
    return outdir


class TestStatsHashMismatch:
    def test_consistent_directory_still_renders(self, journaled_run, capsys):
        assert main(["stats", journaled_run]) == 0
        assert "seed" in capsys.readouterr().out

    def test_mismatched_manifest_refused(self, journaled_run, capsys):
        manifest_path = os.path.join(journaled_run, "manifest.json")
        original = open(manifest_path).read()
        data = json.loads(original)
        data["config_hash"] = "0" * 64
        try:
            with open(manifest_path, "w") as handle:
                json.dump(data, handle)
            assert main(["stats", journaled_run]) == 1
            err = capsys.readouterr().err
            assert "different runs" in err
            # Both hashes are named: the manifest's and the commits'.
            assert "000000000000" in err
            commits = os.path.join(journaled_run, "scheduler", "commits")
            assert os.listdir(commits)[0].split("__")[0] in err
        finally:
            with open(manifest_path, "w") as handle:
                handle.write(original)

    def test_unjournaled_directory_skips_the_check(self, journaled_run, capsys):
        # stats on a directory without scheduler state (e.g. synced
        # without checkpoints) renders from the manifest alone.
        import shutil as _shutil

        copy = journaled_run + "-nojournal"
        _shutil.copytree(journaled_run, copy)
        _shutil.rmtree(os.path.join(copy, "scheduler"))
        with open(os.path.join(copy, "manifest.json")) as handle:
            data = json.load(handle)
        data["config_hash"] = "0" * 64
        with open(os.path.join(copy, "manifest.json"), "w") as handle:
            json.dump(data, handle)
        assert main(["stats", copy]) == 0
