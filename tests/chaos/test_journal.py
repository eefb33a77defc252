"""The journals: one append-only JSONL log, torn-tail salvage."""

import json
import os

import pytest

from repro.errors import ReproIOError, SupervisionError
from repro.resilient import (
    CampaignJournal,
    EventJournal,
    FSYNC_POLICIES,
    JournalEntry,
    JournalHeader,
)
from repro.resilient.journal import AppendLog

HEADER = JournalHeader(
    config_hash="abc123",
    seed=7,
    time_scale=0.01,
    units=("session1", "session2"),
)


def entry(key, attempts=1):
    return JournalEntry(
        key=key,
        attempts=attempts,
        sram_bits=1024,
        session={"label": key, "upsets": 3},
        metrics={"counters": {"injection.flips": 3}},
    )


def write_journal(path, entries=(), header=HEADER):
    with CampaignJournal.create(str(path), header, fsync="never") as journal:
        for item in entries:
            journal.append_unit(item)
    return str(path)


class TestRoundTrip:
    def test_header_and_entries_come_back(self, tmp_path):
        path = write_journal(
            tmp_path / "journal.jsonl",
            [entry("session1"), entry("session2", attempts=3)],
        )
        loaded = CampaignJournal.load(path)
        assert loaded.header == HEADER
        assert loaded.salvaged == 0
        assert loaded.valid_end == os.path.getsize(path)
        entries = loaded.entries
        assert set(entries) == {"session1", "session2"}
        assert entries["session2"].attempts == 3
        assert entries["session1"].session == {"label": "session1", "upsets": 3}
        assert entries["session1"].metrics == {
            "counters": {"injection.flips": 3}
        }

    def test_create_truncates_stale_journal(self, tmp_path):
        path = write_journal(tmp_path / "journal.jsonl", [entry("session1")])
        write_journal(tmp_path / "journal.jsonl", [])
        assert CampaignJournal.load(path).entries == {}

    def test_reopen_appends(self, tmp_path):
        path = write_journal(tmp_path / "journal.jsonl", [entry("session1")])
        with CampaignJournal(path, fsync="never").reopen() as journal:
            journal.append_unit(entry("session2"))
        entries = CampaignJournal.load(path).entries
        assert set(entries) == {"session1", "session2"}

    def test_duplicate_key_last_wins(self, tmp_path):
        # A rerun-after-salvage appends the unit again; the later,
        # complete record is authoritative.
        path = write_journal(
            tmp_path / "journal.jsonl",
            [entry("session1", attempts=1), entry("session1", attempts=2)],
        )
        entries = CampaignJournal.load(path).entries
        assert entries["session1"].attempts == 2


class TestTornLines:
    def test_torn_tail_is_salvaged(self, tmp_path):
        path = write_journal(tmp_path / "journal.jsonl", [entry("session1")])
        intact = os.path.getsize(path)
        with open(path, "a") as handle:
            handle.write('{"kind": "unit", "key": "session2", "att')
        loaded = CampaignJournal.load(path)
        assert loaded.salvaged == 1
        assert set(loaded.entries) == {"session1"}
        # valid_end excludes the fragment: reopen() truncates to here.
        assert loaded.valid_end == intact

    def test_reopen_truncates_salvaged_tail(self, tmp_path):
        # Resume after a torn tail must remove the fragment before
        # appending -- otherwise the first appended record glues onto
        # it (no newline between them) and a *second* resume hard-fails
        # on a corrupt non-final line.
        path = write_journal(tmp_path / "journal.jsonl", [entry("session1")])
        with open(path, "a") as handle:
            handle.write('{"kind": "unit", "key": "session2", "att')
        loaded = CampaignJournal.load(path)
        with CampaignJournal(path, fsync="never").reopen(
            valid_end=loaded.valid_end
        ) as journal:
            journal.append_unit(entry("session2"))
        reloaded = CampaignJournal.load(path)
        assert reloaded.salvaged == 0
        assert set(reloaded.entries) == {"session1", "session2"}

    def test_reopen_without_offset_trims_unterminated_tail(self, tmp_path):
        path = write_journal(tmp_path / "journal.jsonl", [entry("session1")])
        with open(path, "a") as handle:
            handle.write('{"torn')
        with CampaignJournal(path, fsync="never").reopen() as journal:
            journal.append_unit(entry("session2"))
        reloaded = CampaignJournal.load(path)
        assert reloaded.salvaged == 0
        assert set(reloaded.entries) == {"session1", "session2"}

    def test_reopen_without_offset_keeps_a_complete_unterminated_line(
        self, tmp_path
    ):
        # A crash that tore off only the final newline leaves a line
        # the reader keeps; reopening must keep it too, and terminate it.
        path = write_journal(tmp_path / "journal.jsonl", [entry("session1")])
        with open(path, "rb+") as handle:
            handle.truncate(os.path.getsize(path) - 1)
        with CampaignJournal(path, fsync="never").reopen() as journal:
            journal.append_unit(entry("session2"))
        reloaded = CampaignJournal.load(path)
        assert reloaded.salvaged == 0
        assert set(reloaded.entries) == {"session1", "session2"}

    def test_torn_middle_refuses_salvage(self, tmp_path):
        path = write_journal(tmp_path / "journal.jsonl", [])
        with open(path, "a") as handle:
            handle.write('{"kind": "unit", TORN\n')
            handle.write(json.dumps(entry("session2").to_dict()) + "\n")
        with pytest.raises(ReproIOError, match="corrupt at line"):
            CampaignJournal.load(path)

    def test_missing_journal(self, tmp_path):
        with pytest.raises(ReproIOError, match="nothing to resume"):
            CampaignJournal.load(str(tmp_path / "absent.jsonl"))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps(entry("session1").to_dict()) + "\n")
        with pytest.raises(ReproIOError, match="no header"):
            CampaignJournal.load(str(path))

    def test_empty_file_means_no_header(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("")
        with pytest.raises(ReproIOError, match="no header"):
            CampaignJournal.load(str(path))

    def test_unknown_record_kind(self, tmp_path):
        path = write_journal(tmp_path / "journal.jsonl", [])
        with open(path, "a") as handle:
            handle.write('{"kind": "mystery"}\n')
            handle.write(json.dumps(entry("session1").to_dict()) + "\n")
        with pytest.raises(ReproIOError, match="unexpected record kind"):
            CampaignJournal.load(path)


class TestSchemaAndPolicies:
    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        record = HEADER.to_dict()
        record["schema"] = 99
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ReproIOError, match="schema"):
            CampaignJournal.load(str(path))

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(SupervisionError, match="fsync"):
            CampaignJournal(str(tmp_path / "j.jsonl"), fsync="sometimes")

    def test_policies_are_closed_set(self):
        assert FSYNC_POLICIES == ("unit", "never")

    def test_append_requires_open_handle(self, tmp_path):
        journal = CampaignJournal(str(tmp_path / "j.jsonl"), fsync="never")
        with pytest.raises(SupervisionError, match="not open"):
            journal.append_unit(entry("session1"))

    def test_double_reopen_rejected(self, tmp_path):
        path = write_journal(tmp_path / "journal.jsonl", [])
        journal = CampaignJournal(path, fsync="never").reopen()
        try:
            with pytest.raises(SupervisionError, match="already open"):
                journal.reopen()
        finally:
            journal.close()

    def test_close_is_idempotent(self, tmp_path):
        path = write_journal(tmp_path / "journal.jsonl", [])
        journal = CampaignJournal(path, fsync="never").reopen()
        journal.close()
        journal.close()


BROKER_HEADER = {"schema": 1, "broker": "broker-a"}


class TestEventJournal:
    def test_header_written_only_when_new(self, tmp_path):
        path = str(tmp_path / "journal-broker-a.jsonl")
        with EventJournal(path, header=BROKER_HEADER, fsync="never") as log:
            log.append({"event": "submit", "unit": "u1"})
        with EventJournal(path, header=BROKER_HEADER, fsync="never") as log:
            log.append({"event": "lease", "unit": "u1"})
        records = AppendLog.read(path).records
        assert [r.get("kind") for r in records] == ["header", None, None]
        assert records[0] == dict(BROKER_HEADER, kind="header")

    def test_lines_have_sorted_keys(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with EventJournal(path, fsync="never") as log:
            log.append({"unit": "u1", "event": "lease", "attempt": 2})
        with open(path) as handle:
            assert handle.read() == (
                '{"attempt": 2, "event": "lease", "unit": "u1"}\n'
            )

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with pytest.raises(SupervisionError, match="fsync"):
            EventJournal(str(path), fsync="sometimes")
        assert not path.exists()

    def test_restart_after_torn_tail_appends_cleanly(self, tmp_path):
        # A broker SIGKILLed mid-append, restarted under the same id
        # (serve --broker-id), must not glue its next event onto the
        # torn fragment.
        path = str(tmp_path / "journal-broker-a.jsonl")
        with EventJournal(path, header=BROKER_HEADER, fsync="never") as log:
            log.append({"event": "lease", "unit": "u1"})
        with open(path, "a") as handle:
            handle.write('{"event": "lease", "unit')
        appended = [
            {"event": "lease", "unit": "u2"},
            {"event": "complete", "unit": "u2"},
        ]
        with EventJournal(path, header=BROKER_HEADER, fsync="never") as log:
            for event in appended:
                log.append(event)
        read = AppendLog.read(path)
        assert read.salvaged == 0
        survivor = {"event": "lease", "unit": "u1"}
        assert read.records[1:] == [survivor, *appended]
