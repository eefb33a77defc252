"""The ``repro-campaign explore`` verb: artifacts, resume, determinism."""

import json
import os

import pytest

from repro.cli import main
from repro.codecs import SweepSpec, plan_sweep, run_cell, sweep_cells
from repro.scheduler import Broker, DirectoryStore

TINY = [
    "--codecs",
    "parity,secded",
    "--points",
    "980:950,790:950",
    "--workloads",
    "CG",
    "--strikes",
    "64",
    "--seed",
    "7",
]


def tiny_spec():
    return SweepSpec(
        codecs=("parity", "secded"),
        points=((980, 950), (790, 950)),
        workloads=("CG",),
        strikes=64,
        seed=7,
    )


@pytest.fixture(scope="module")
def explored(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("explore") / "sweep")
    assert main(["explore", outdir] + TINY) == 0
    return outdir


class TestArtifacts:
    def test_pareto_json(self, explored):
        with open(os.path.join(explored, "pareto.json")) as handle:
            document = json.load(handle)
        assert document["schema"] == 1
        assert document["config_hash"] == tiny_spec().config_hash
        assert len(document["cells"]) == 4
        assert document["ok"] is True
        for cell in document["cells"]:
            assert "upper" in cell["fit_total"]
            assert "on_front" in cell

    def test_fit_cells_csv(self, explored):
        with open(os.path.join(explored, "fit_cells.csv")) as handle:
            lines = handle.read().splitlines()
        assert lines[0].startswith("label,codec,pmd_mv")
        assert len(lines) == 1 + 4

    def test_commits_on_disk(self, explored):
        store = DirectoryStore(os.path.join(explored, "scheduler"))
        assert len(store.committed_units()) == 4

    def test_summary_printed(self, explored, capsys):
        # Re-run via --resume to observe the summary line cheaply.
        assert main(["explore", explored, "--resume"] + TINY) == 0
        out = capsys.readouterr().out
        assert "recovered 4 committed cell(s)" in out
        assert "pareto front" in out


class TestGuards:
    def test_rerun_without_mode_flag_refused(self, explored, capsys):
        assert main(["explore", explored] + TINY) == 1
        err = capsys.readouterr().err
        assert "--resume" in err and "--fresh" in err

    def test_resume_with_no_commits_refused(self, tmp_path, capsys):
        outdir = str(tmp_path / "empty")
        assert main(["explore", outdir, "--resume"] + TINY) == 1
        assert "no committed cells" in capsys.readouterr().err

    def test_malformed_points_refused(self, tmp_path, capsys):
        assert main(["explore", str(tmp_path / "x"), "--points", "980-950"]) == 1
        assert "malformed operating point" in capsys.readouterr().err


class TestDeterminism:
    def test_fresh_rerun_is_byte_identical(self, explored, tmp_path):
        outdir = str(tmp_path / "again")
        assert main(["explore", outdir] + TINY) == 0
        for name in ("pareto.json", "fit_cells.csv"):
            with open(os.path.join(explored, name), "rb") as handle:
                first = handle.read()
            with open(os.path.join(outdir, name), "rb") as handle:
                second = handle.read()
            assert first == second, name

    def test_parallel_matches_serial(self, explored, tmp_path):
        outdir = str(tmp_path / "par")
        assert main(["explore", outdir, "--workers", "4"] + TINY) == 0
        for name in ("pareto.json", "fit_cells.csv"):
            with open(os.path.join(explored, name), "rb") as handle:
                serial = handle.read()
            with open(os.path.join(outdir, name), "rb") as handle:
                parallel = handle.read()
            assert serial == parallel, name

    def test_mid_sweep_resume_matches_full_run(self, explored, tmp_path):
        # Simulate a killed sweep: commit the first two cells through
        # the broker API directly, then let --resume finish the rest.
        outdir = str(tmp_path / "resumed")
        spec = tiny_spec()
        broker = Broker(
            lease_ttl_s=3600.0,
            store=DirectoryStore(os.path.join(outdir, "scheduler")),
            broker_id="test-partial",
        )
        broker.submit(plan_sweep(spec))
        for lease in broker.lease("test-worker", limit=2):
            payload = run_cell(lease.unit.args[0])
            broker.complete(lease, payload=payload)
        assert main(["explore", outdir, "--resume"] + TINY) == 0
        with open(os.path.join(explored, "pareto.json"), "rb") as handle:
            full = handle.read()
        with open(os.path.join(outdir, "pareto.json"), "rb") as handle:
            resumed = handle.read()
        assert full == resumed

    def test_fresh_discards_commits(self, tmp_path, capsys):
        outdir = str(tmp_path / "fresh")
        assert main(["explore", outdir] + TINY) == 0
        assert main(["explore", outdir, "--fresh"] + TINY) == 0
        out = capsys.readouterr().out
        assert "recovered" not in out.splitlines()[-10:]
        store = DirectoryStore(os.path.join(outdir, "scheduler"))
        assert len(store.committed_units()) == 4
