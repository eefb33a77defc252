"""On-disk formats of the per-run payload are refused, never half-read.

Before the compact session record, a journal line (journal schema 1)
and a store commit carried ``campaign.json``'s session dict: a ``runs``
list with one row per run and no record version.  ``render_session``
of a record gives exactly that dict, so these tests build the old
shapes from a fresh flight.  A resume over such a journal exits 1 and
leaves it untouched; an assembly over such a payload raises
:class:`~repro.errors.ReproIOError` naming the unit before anything is
written, in ``campaign_dict_from_entries`` and in ``serve`` alike.
The store's commit format stays 2: ``explore``'s cell commits carry no
session, so they stay adoptable.
"""

import json
import os
import shutil

import pytest

from repro.cli import main
from repro.errors import ReproIOError
from repro.io.json_store import campaign_dict_from_entries, render_session
from repro.scheduler import CampaignSpec
from repro.scheduler.store import COMMIT_FORMAT, encode_commit
from repro.service import results_dir, scheduler_dir

SPEC_ARGS = ["--seed", "9", "--time-scale", "0.01"]


def _per_run_payload(payload):
    """*payload* as the per-run format wrote it."""
    return dict(payload, session=render_session(payload["session"]))


def _flown_journal(outdir):
    assert main(["run", str(outdir), *SPEC_ARGS]) == 0
    with open(os.path.join(outdir, "journal.jsonl")) as handle:
        return [json.loads(line) for line in handle]


def test_resume_refuses_a_schema_1_journal(tmp_path, capsys):
    outdir = tmp_path / "run"
    header, *units = _flown_journal(outdir)
    path = os.path.join(outdir, "journal.jsonl")
    lines = [dict(header, schema=1)]
    lines += [_per_run_payload(unit) for unit in units[:2]]
    with open(path, "w") as handle:
        handle.write("".join(json.dumps(line) + "\n" for line in lines))
    with open(path, "rb") as handle:
        before = handle.read()
    capsys.readouterr()

    assert main(["run", str(outdir), *SPEC_ARGS, "--resume"]) == 1
    err = capsys.readouterr().err
    assert "unsupported journal schema 1 (expected 2)" in err
    with open(path, "rb") as handle:
        assert handle.read() == before


def test_assembly_refuses_a_per_run_session_payload(tmp_path):
    _, *units = _flown_journal(tmp_path / "run")
    entries = [
        {key: unit[key] for key in ("key", "attempts", "sram_bits",
                                    "session", "metrics")}
        for unit in units
    ]
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
