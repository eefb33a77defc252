"""The service's event journal: one append-only JSONL log, torn tails trimmed.

``run`` checkpoints into the scheduler store, so :class:`EventJournal`
(on :class:`~repro.resilient.journal.AppendLog`) is the one journal
left: the broker's scheduling events under ``serve``.  Reopening one --
a restarted broker reusing its id -- trims a torn final line before
appending.
"""

import json
import os

import pytest

from repro.errors import SupervisionError
from repro.resilient import EventJournal

BROKER_HEADER = {"schema": 1, "broker": "broker-a"}


def read_records(path):
    """Every line of a journal, parsed (a torn line fails the test)."""
    with open(path, "rb") as handle:
        return [json.loads(line) for line in handle.read().splitlines()]


def write_events(path, events, header=BROKER_HEADER):
    with EventJournal(str(path), header=header) as log:
        for event in events:
            log.append(event)
    return str(path)


class TestRoundTrip:
    def test_reopen_appends(self, tmp_path):
        path = write_events(tmp_path / "journal.jsonl", [{"event": "a"}])
        with open(path, "rb") as handle:
            before = handle.read()
        with EventJournal(path, header=BROKER_HEADER) as log:
            log.append({"event": "b"})
        with open(path, "rb") as handle:
            after = handle.read()
        # The earlier lines are kept byte for byte; the header is not
        # written again.
        assert after.startswith(before)
        assert read_records(path)[1:] == [{"event": "a"}, {"event": "b"}]


class TestTornLines:
    def test_reopen_truncates_salvaged_tail(self, tmp_path):
        # The torn fragment is physically removed before the append, so
        # the file is the intact prefix plus the new line.
        path = write_events(tmp_path / "journal.jsonl", [{"event": "a"}])
        with open(path, "rb") as handle:
            intact = handle.read()
        with open(path, "ab") as handle:
            handle.write(b'{"event": "b", "un')
        with EventJournal(path) as log:
            log.append({"event": "c"})
        with open(path, "rb") as handle:
            assert handle.read() == intact + b'{"event": "c"}\n'

    def test_reopen_without_offset_trims_unterminated_tail(self, tmp_path):
        path = write_events(tmp_path / "journal.jsonl", [{"event": "a"}])
        with open(path, "a") as handle:
            handle.write('{"torn')
        with EventJournal(path) as log:
            log.append({"event": "b"})
        assert read_records(path)[1:] == [{"event": "a"}, {"event": "b"}]

    def test_reopen_without_offset_keeps_a_complete_unterminated_line(
        self, tmp_path
    ):
        # A crash that tore off only the final newline leaves a line
        # that parses; reopening keeps it, and terminates it.
        path = write_events(tmp_path / "journal.jsonl", [{"event": "a"}])
        with open(path, "rb+") as handle:
            handle.truncate(os.path.getsize(path) - 1)
        with EventJournal(path) as log:
            log.append({"event": "b"})
        assert read_records(path)[1:] == [{"event": "a"}, {"event": "b"}]


class TestSchemaAndPolicies:
    def test_append_requires_open_handle(self, tmp_path):
        journal = EventJournal(str(tmp_path / "j.jsonl"))
        journal.close()
        with pytest.raises(SupervisionError, match="closed"):
            journal.append({"event": "late"})

    def test_close_is_idempotent(self, tmp_path):
        journal = EventJournal(str(tmp_path / "j.jsonl"))
        journal.close()
        journal.close()


class TestEventJournal:
    def test_header_written_only_when_new(self, tmp_path):
        path = str(tmp_path / "journal-broker-a.jsonl")
        with EventJournal(path, header=BROKER_HEADER) as log:
            log.append({"event": "submit", "unit": "u1"})
        with EventJournal(path, header=BROKER_HEADER) as log:
            log.append({"event": "lease", "unit": "u1"})
        records = read_records(path)
        assert [r.get("kind") for r in records] == ["header", None, None]
        assert records[0] == dict(BROKER_HEADER, kind="header")

    def test_lines_have_sorted_keys(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with EventJournal(path) as log:
            log.append({"unit": "u1", "event": "lease", "attempt": 2})
        with open(path) as handle:
            assert handle.read() == (
                '{"attempt": 2, "event": "lease", "unit": "u1"}\n'
            )

    def test_restart_after_torn_tail_appends_cleanly(self, tmp_path):
        # A broker SIGKILLed mid-append, restarted under the same id
        # (serve --broker-id), must not glue its next event onto the
        # torn fragment.
        path = str(tmp_path / "journal-broker-a.jsonl")
        with EventJournal(path, header=BROKER_HEADER) as log:
            log.append({"event": "lease", "unit": "u1"})
        with open(path, "a") as handle:
            handle.write('{"event": "lease", "unit')
        appended = [
            {"event": "lease", "unit": "u2"},
            {"event": "complete", "unit": "u2"},
        ]
        with EventJournal(path, header=BROKER_HEADER) as log:
            for event in appended:
                log.append(event)
        survivor = {"event": "lease", "unit": "u1"}
        assert read_records(path)[1:] == [survivor, *appended]
