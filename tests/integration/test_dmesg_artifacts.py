"""Every ``<label>.dmesg`` holds its session's ``edac_dmesg``, on every path.

``run`` (serial, pooled, crashed then resumed) and ``serve`` write the
EDAC captures from the same encoded campaign dict as ``campaign.json``.
These tests pin the captures' bytes, not only that the files exist.
"""

import json
import os

import pytest

from repro.cli import EXIT_INTERRUPTED, main
from repro.scheduler import CampaignSpec
from repro.service import results_dir

SEED, SCALE = 13, 0.01
ARGS = ["--seed", str(SEED), "--time-scale", str(SCALE)]


def captures(outdir):
    """``{label: bytes}`` of every ``.dmesg`` file under *outdir*."""
    found = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".dmesg"):
            with open(os.path.join(outdir, name), "rb") as handle:
                found[name[: -len(".dmesg")]] = handle.read()
    return found


def checked_captures(outdir):
    """The captures, each checked against ``campaign.json``'s session."""
    with open(os.path.join(outdir, "campaign.json")) as handle:
        sessions = json.load(handle)["sessions"]
    found = captures(outdir)
    assert sorted(found) == sorted(sessions)
    for label, session in sessions.items():
        assert found[label] == session["edac_dmesg"].encode(), label
    return found


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("dmesg") / "serial")
    assert main(["run", outdir] + ARGS) == 0
    return outdir


@pytest.fixture(scope="module")
def serial(serial_run):
    return captures(serial_run)


def test_serial_run(serial_run):
    found = checked_captures(serial_run)
    # Every session logged EDAC records: an empty capture pins nothing.
    assert len(found) == 4 and all(found.values())


def test_pooled_run(serial, tmp_path):
    outdir = str(tmp_path / "pooled")
    assert main(["run", outdir, "--workers", "2"] + ARGS) == 0
    assert checked_captures(outdir) == serial


def test_crashed_then_resumed_run(serial, tmp_path):
    outdir = str(tmp_path / "resumed")
    chaos = json.dumps({"crash_after_units": 2})
    assert main(["run", outdir, "--chaos", chaos] + ARGS) == EXIT_INTERRUPTED
    assert main(["run", outdir, "--resume"] + ARGS) == 0
    assert checked_captures(outdir) == serial


def test_served_job(serial, tmp_path):
    root = str(tmp_path / "root")
    assert main(["submit", root] + ARGS) == 0
    serve = ["serve", root, "--poll", "0.05", "--idle-exit", "0.2"]
    assert main(serve) == 0
    spec = CampaignSpec(seed=SEED, time_scale=SCALE)
    outdir = results_dir(root, spec.submission_id)
    assert checked_captures(outdir) == serial
