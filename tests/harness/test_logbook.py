"""Session logbook."""

import pytest

from repro.errors import LogbookError, ReproError
from repro.harness.logbook import Logbook, LogEntry, VALID_KINDS


class TestLogbook:
    def test_record_and_count(self):
        book = Logbook()
        book.record(1.0, "run", "start", benchmark="CG")
        book.record(2.0, "sdc", "mismatch", benchmark="CG")
        book.record(3.0, "run", "start", benchmark="EP")
        assert len(book) == 3
        assert book.count("run") == 2
        assert book.count("sdc") == 1
        assert book.count("powercycle") == 0

    def test_entries_filter(self):
        book = Logbook()
        book.record(1.0, "run", "a")
        book.record(2.0, "ok", "b")
        assert [e.kind for e in book.entries("ok")] == ["ok"]
        assert len(book.entries()) == 2

    def test_render_contains_messages(self):
        book = Logbook()
        book.record(1.5, "syscrash", "board unreachable", benchmark="MG")
        text = book.render()
        assert "SYSCRASH" in text
        assert "[MG]" in text
        assert "board unreachable" in text

    def test_entry_render_without_benchmark(self):
        entry = LogEntry(time_s=0.0, kind="note", message="hello")
        assert "[" not in entry.render().split(":")[0]

    def test_iteration_order(self):
        book = Logbook()
        for t in (1.0, 2.0, 3.0):
            book.record(t, "run", "x")
        assert [e.time_s for e in book] == [1.0, 2.0, 3.0]


class TestKindValidation:
    def test_every_documented_kind_accepted(self):
        book = Logbook()
        for kind in sorted(VALID_KINDS):
            book.record(0.0, kind, "x")
        assert len(book) == len(VALID_KINDS)

    def test_unknown_kind_rejected_with_clear_error(self):
        book = Logbook()
        with pytest.raises(LogbookError) as excinfo:
            book.record(1.0, "sdcc", "typo'd kind")
        message = str(excinfo.value)
        assert "sdcc" in message
        assert "sdc" in message  # the error lists the valid choices
        assert len(book) == 0  # nothing appended

    def test_logbook_error_is_a_repro_error(self):
        assert issubclass(LogbookError, ReproError)
