"""Property-based torn-tail tests for the checkpoint journal.

The example-based tests in test_journal.py cut the tail at hand-picked
offsets; a real crash tears the file at an *arbitrary* byte.  These
properties assert, for every truncation point past the header line:

* :meth:`CampaignJournal.load` salvages -- never raises, never invents
  entries -- and what survives is an exact prefix of what was written;
* the salvaged journal is *resumable*: reopening at ``valid_end`` and
  re-appending the lost entries reproduces a journal that loads clean;
* :func:`read_journal_header` agrees with the full loader;
* the broker's :class:`EventJournal`, reopened after any cut the way a
  restarted ``serve --broker-id`` reopens it, appends cleanly too.
"""

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilient import (
    CampaignJournal,
    EventJournal,
    JournalEntry,
    JournalHeader,
    read_journal_header,
)
from repro.resilient.journal import AppendLog

HEADER = JournalHeader(
    config_hash="abc123",
    seed=7,
    time_scale=0.01,
    units=("session1", "session2", "session3", "session4"),
)


def _entry(index: int, payload: int) -> JournalEntry:
    return JournalEntry(
        key=f"session{index + 1}",
        attempts=1 + index % 3,
        sram_bits=1024,
        session={"label": f"session{index + 1}", "upsets": payload},
        metrics=None if index % 2 else {"counters": {"flips": payload}},
    )


def _write(path, entries) -> bytes:
    with CampaignJournal.create(path, HEADER, fsync="never") as journal:
        for item in entries:
            journal.append_unit(item)
    with open(path, "rb") as handle:
        return handle.read()


# Journal shapes: up to 4 entries with arbitrary small payloads, torn
# at any byte from the end of the header line to the full file (the
# cut offset is drawn interactively since it depends on the file size).
payload_lists = st.lists(
    st.integers(min_value=0, max_value=999), max_size=4
)


@settings(max_examples=60, deadline=None)
@given(payloads=payload_lists, data=st.data())
def test_any_torn_tail_salvages_to_a_prefix(payloads, data, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("torn") / "journal.jsonl")
    entries = [_entry(i, p) for i, p in enumerate(payloads)]
    raw = _write(path, entries)
    header_end = raw.index(b"\n") + 1

    cut = data.draw(
        st.integers(min_value=header_end, max_value=len(raw)), label="cut"
    )
    with open(path, "wb") as handle:
        handle.write(raw[:cut])

    loaded = CampaignJournal.load(path)
    assert loaded.header == HEADER
    assert loaded.salvaged <= 1
    assert loaded.valid_end <= cut

    # What survives is an exact prefix: entry k only if every line up
    # to k survived whole, with payloads intact.
    kept = len(loaded.entries)
    assert kept <= len(entries)
    for index in range(kept):
        original = entries[index]
        salvaged = loaded.entries[original.key]
        assert salvaged == original
    # A torn byte in the middle of line k+1 must not resurrect it.
    if kept < len(entries):
        assert entries[kept].key not in loaded.entries

    # The header line survives any tail cut, so the cheap reader works.
    assert read_journal_header(path) == HEADER


@settings(max_examples=30, deadline=None)
@given(payloads=payload_lists, data=st.data())
def test_salvaged_journal_is_resumable(payloads, data, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("resume") / "journal.jsonl")
    entries = [_entry(i, p) for i, p in enumerate(payloads)]
    raw = _write(path, entries)
    header_end = raw.index(b"\n") + 1

    cut = data.draw(
        st.integers(min_value=header_end, max_value=len(raw)), label="cut"
    )
    with open(path, "wb") as handle:
        handle.write(raw[:cut])

    loaded = CampaignJournal.load(path)
    # Resume exactly as ResilientCampaign does: truncate the torn
    # fragment, append every entry the salvage lost.
    journal = CampaignJournal(path, fsync="never")
    with journal.reopen(valid_end=loaded.valid_end):
        for item in entries:
            if item.key not in loaded.entries:
                journal.append_unit(item)

    final = CampaignJournal.load(path)
    assert final.salvaged == 0
    assert final.valid_end == os.path.getsize(path)
    assert set(final.entries) == {e.key for e in entries}
    for item in entries:
        assert final.entries[item.key] == item

    # Every line of the healed file parses: the torn fragment is gone.
    with open(path, "rb") as handle:
        for line in handle.read().splitlines():
            json.loads(line)


EVENT_HEADER = {"schema": 1, "broker": "broker-a"}


@settings(max_examples=30, deadline=None)
@given(payloads=payload_lists, data=st.data())
def test_salvaged_event_journal_is_resumable(
    payloads, data, tmp_path_factory
):
    path = str(tmp_path_factory.mktemp("events") / "journal-broker-a.jsonl")
    events = [{"event": "lease", "unit": f"u{p}"} for p in payloads]
    with EventJournal(path, header=EVENT_HEADER, fsync="never") as journal:
        for event in events:
            journal.append(event)
    with open(path, "rb") as handle:
        raw = handle.read()
    header_end = raw.index(b"\n") + 1

    cut = data.draw(
        st.integers(min_value=header_end, max_value=len(raw)), label="cut"
    )
    with open(path, "wb") as handle:
        handle.write(raw[:cut])

    # Reopen the same path, as a restarted broker with the same id
    # does, and append.
    appended = [
        {"event": "lease", "unit": "after-1"},
        {"event": "complete", "unit": "after-2"},
    ]
    with EventJournal(path, header=EVENT_HEADER, fsync="never") as journal:
        for event in appended:
            journal.append(event)

    # Every line of the healed file parses: the torn fragment is gone.
    with open(path, "rb") as handle:
        for line in handle.read().splitlines():
            json.loads(line)
    read = AppendLog.read(path)
    assert read.salvaged == 0
    assert read.records[0] == dict(EVENT_HEADER, kind="header")
    survived = read.records[1:-len(appended)]
    assert survived == events[: len(survived)]
    assert read.records[-len(appended):] == appended
