"""Legacy on-disk formats are refused, never half-read.

``run`` once checkpointed into ``OUTDIR/journal.jsonl``; it now commits
into ``OUTDIR/scheduler``, the store ``explore`` and ``serve`` use.  An
OUTDIR still holding a journal is refused by ``run``, ``run --resume``
and ``stats`` alike, with its bytes left as they were, and ``--fresh``
removes it.

Before the compact session record, a store commit carried
``campaign.json``'s session dict: a ``runs`` list with one row per run
and no record version.  ``render_session`` of a record gives exactly
that dict, so these tests build the old shape from a fresh flight.  An
assembly over such a payload raises :class:`~repro.errors.ReproIOError`
naming the unit before anything is written, in
``campaign_dict_from_entries`` and in ``serve`` alike.  The store's
commit format stays 2: ``explore``'s cell commits carry no session, so
they stay adoptable.
"""

import json
import os
import shutil

import pytest

from repro.cli import main
from repro.errors import ReproIOError
from repro.io.json_store import campaign_dict_from_entries, render_session
from repro.scheduler import CampaignSpec
from repro.scheduler.store import COMMIT_FORMAT, decode_commit, encode_commit
from repro.service import results_dir, scheduler_dir

SPEC_ARGS = ["--seed", "9", "--time-scale", "0.01"]

#: The first line of a journal the pre-store ``run`` wrote.
LEGACY_HEADER = {
    "kind": "header", "schema": 1, "config_hash": "0" * 64, "seed": 9,
    "time_scale": 0.01, "units": ["session1"],
}


def _per_run_payload(payload):
    """*payload* as the per-run format wrote it."""
    return dict(payload, session=render_session(payload["session"]))


def _committed_payloads(outdir):
    """The unit payloads a fresh ``run`` committed, in plan order."""
    assert main(["run", str(outdir), *SPEC_ARGS]) == 0
    commits = os.path.join(outdir, "scheduler", "commits")
    payloads = []
    for name in sorted(os.listdir(commits)):
        with open(os.path.join(commits, name), "rb") as handle:
            payloads.append(decode_commit(handle.read())["payload"])
    return payloads


def _legacy_outdir(tmp_path, capsys):
    """A run OUTDIR that also holds a pre-store journal; its bytes."""
    outdir = tmp_path / "run"
    assert main(["run", str(outdir), *SPEC_ARGS]) == 0
    path = os.path.join(outdir, "journal.jsonl")
    with open(path, "w") as handle:
        handle.write(json.dumps(LEGACY_HEADER) + "\n")
    with open(path, "rb") as handle:
        before = handle.read()
    capsys.readouterr()
    return str(outdir), path, before


def _refused(argv, path, before, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "journal.jsonl, the checkpoint format from before" in err
    with open(path, "rb") as handle:
        assert handle.read() == before


def test_resume_refuses_a_schema_1_journal(tmp_path, capsys):
    outdir, path, before = _legacy_outdir(tmp_path, capsys)
    _refused(["run", outdir, *SPEC_ARGS, "--resume"], path, before, capsys)


def test_run_refuses_a_legacy_journal(tmp_path, capsys):
    outdir, path, before = _legacy_outdir(tmp_path, capsys)
    shutil.rmtree(os.path.join(outdir, "scheduler"))
    _refused(["run", outdir, *SPEC_ARGS], path, before, capsys)


def test_stats_refuses_a_legacy_journal(tmp_path, capsys):
    outdir, path, before = _legacy_outdir(tmp_path, capsys)
    _refused(["stats", outdir], path, before, capsys)


def test_fresh_removes_a_legacy_journal(tmp_path, capsys):
    outdir, path, _ = _legacy_outdir(tmp_path, capsys)
    assert main(["run", outdir, *SPEC_ARGS, "--fresh"]) == 0
    assert not os.path.exists(path)
    assert main(["stats", outdir]) == 0


def test_assembly_refuses_a_per_run_session_payload(tmp_path):
    entries = _committed_payloads(tmp_path / "run")
    campaign_dict_from_entries(entries)  # the current record assembles
    entries[2] = _per_run_payload(entries[2])
    with pytest.raises(ReproIOError, match="unit 'session3'.*version None"):
        campaign_dict_from_entries(entries)


def test_serve_refuses_a_per_run_commit(tmp_path, capsys):
    root = str(tmp_path / "root")
    serve = ["serve", root, "--poll", "0.05", "--idle-exit", "0.2"]
    assert main(["submit", root, *SPEC_ARGS]) == 0
    assert main(serve) == 0
    # Rewrite one commit to the per-run shape, as one written before the
    # record would be, and leave the submission unassembled.
    commits = os.path.join(scheduler_dir(root), "commits")
    name = sorted(os.listdir(commits))[0]
    with open(os.path.join(commits, name)) as handle:
        record = json.load(handle)
    assert record["format"] == COMMIT_FORMAT == 2
    legacy = _per_run_payload(record["payload"])
    with open(os.path.join(commits, name), "wb") as handle:
        handle.write(encode_commit(legacy, record["epoch"], record["writer"]))
    outdir = results_dir(root, CampaignSpec(seed=9, time_scale=0.01).submission_id)
    shutil.rmtree(outdir)
    capsys.readouterr()

    assert main(serve) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unit ")
    assert f"unit {legacy['key']!r}" in err
    assert not os.path.exists(os.path.join(outdir, "campaign.json"))
