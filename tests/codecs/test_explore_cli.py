"""The ``repro-campaign explore`` verb: artifacts, resume, determinism."""

import json
import os

import pytest

from repro import cli
from repro.cli import main
from repro.codecs import SweepSpec, plan_sweep, run_cell, sweep, sweep_cells
from repro.scheduler import Broker, DirectoryStore

from .. import cli_process
from ..test_cli import _signalled

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


#: A sweep across two technology nodes (4 cells).
CROSS_NODE = [
    "--codecs",
    "secded",
    "--points",
    "980:950,920:920",
    "--workloads",
    "CG",
    "--node",
    "xgene2-28,7nm",
    "--strikes",
    "1000",
    "--seed",
    "2023",
]


def read_bytes(outdir, name):
    with open(os.path.join(outdir, name), "rb") as handle:
        return handle.read()


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


@pytest.fixture(scope="module")
def cross_node(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("cross-node") / "sweep")
    assert main(["explore", outdir] + CROSS_NODE) == 0
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

    def test_summary_printed(self, explored, cross_node, capsys):
        # Re-run via --resume to observe the summary line cheaply; a
        # resume of a finished sweep flies nothing and changes nothing.
        for outdir, flags in ((explored, TINY), (cross_node, CROSS_NODE)):
            before = read_bytes(outdir, "pareto.json")
            assert main(["explore", outdir, "--resume"] + flags) == 0
            out = capsys.readouterr().out
            assert "recovered 4 committed cell(s)" in out
            assert "cell(s) committed" not in out
            assert "pareto front" in out
            assert read_bytes(outdir, "pareto.json") == before


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

    def test_parallel_matches_serial(self, explored, cross_node, tmp_path):
        for index, (serial, flags) in enumerate(
            ((explored, TINY), (cross_node, CROSS_NODE))
        ):
            outdir = str(tmp_path / f"par{index}")
            assert main(["explore", outdir, "--workers", "4"] + flags) == 0
            for name in ("pareto.json", "fit_cells.csv"):
                assert read_bytes(serial, name) == read_bytes(outdir, name), (
                    flags,
                    name,
                )

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

    def test_interrupted_fresh_leaves_no_old_artifacts(
        self, tmp_path, monkeypatch
    ):
        # --fresh discards the old sweep's results before the first
        # cell, so an interrupted fresh sweep cannot leave them beside
        # a store of the new one.
        outdir = str(tmp_path / "fresh-interrupted")
        assert main(["explore", outdir] + TINY) == 0
        monkeypatch.setattr(cli, "_interruptible", _signalled)
        code = main(["explore", outdir, "--fresh"] + TINY)
        assert code == cli.EXIT_INTERRUPTED
        for name in ("pareto.json", "fit_cells.csv"):
            assert not os.path.exists(os.path.join(outdir, name)), name


class TestFailingCell:
    def test_failed_cell_spares_the_rest_and_resumes(
        self, explored, tmp_path, monkeypatch, capsys
    ):
        poison = sweep_cells(tiny_spec())[1].label
        real_run_cell = sweep.run_cell

        def poisoned(cell):
            if cell.label == poison:
                raise RuntimeError("poisoned cell")
            return real_run_cell(cell)

        monkeypatch.setattr(sweep, "run_cell", poisoned)
        outdir = str(tmp_path / "poisoned")
        assert main(["explore", outdir] + TINY) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: cell {poison}: RuntimeError: poisoned cell"
        ]
        assert captured.out.count("cell(s) committed") == 3
        assert not os.path.exists(os.path.join(outdir, "pareto.json"))
        store = DirectoryStore(os.path.join(outdir, "scheduler"))
        assert len(store.committed_units()) == 3

        monkeypatch.undo()
        assert main(["explore", outdir, "--resume"] + TINY) == 0
        assert "recovered 3 committed cell(s)" in capsys.readouterr().out
        for name in ("pareto.json", "fit_cells.csv"):
            assert read_bytes(outdir, name) == read_bytes(explored, name)


class TestRealSignal:
    def test_sigterm_then_printed_resume_matches_full_sweep(self, tmp_path):
        # A real SIGTERM as the first commit lands leaves the unflown
        # cells leased to the dead process; the printed --resume must
        # take them over at once, not wait out the lease.
        flags = [
            "--codecs", "parity,secded",
            "--points", "980:950,790:950",
            "--workloads", "CG,FT",
            "--strikes", "300000",
            "--seed", "13",
        ]
        outdir = str(tmp_path / "killed")
        commits = os.path.join(outdir, "scheduler", "commits")

        def first_commit():
            return os.path.isdir(commits) and any(
                name.endswith(".json") for name in os.listdir(commits)
            )

        proc = cli_process.spawn(["explore", outdir] + flags)
        code, _, err = cli_process.signal_when(proc, first_commit)
        assert code == cli.EXIT_INTERRUPTED, err
        assert not os.path.exists(os.path.join(outdir, "pareto.json"))

        assert main(cli_process.resume_argv(err)) == 0
        leases = os.path.join(outdir, "scheduler", "leases")
        assert os.listdir(leases) == []
        reference = str(tmp_path / "uninterrupted")
        assert main(["explore", reference] + flags) == 0
        for name in ("pareto.json", "fit_cells.csv"):
            assert read_bytes(outdir, name) == read_bytes(reference, name)
