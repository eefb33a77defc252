"""Property-based torn-tail test for the service's event journal.

The example-based tests in test_journal.py cut the tail at hand-picked
offsets; a real crash tears the file at an *arbitrary* byte.  For every
truncation point past the header line, the broker's
:class:`EventJournal`, reopened after the cut the way a restarted
``serve --broker-id`` reopens it, appends cleanly: every line of the
healed file parses, and what survived is an exact prefix of what was
written.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilient import EventJournal

# Up to 4 events with arbitrary small payloads, torn at any byte from
# the end of the header line to the full file (the cut offset is drawn
# interactively since it depends on the file size).
payload_lists = st.lists(
    st.integers(min_value=0, max_value=999), max_size=4
)

EVENT_HEADER = {"schema": 1, "broker": "broker-a"}


@settings(max_examples=30, deadline=None)
@given(payloads=payload_lists, data=st.data())
def test_salvaged_event_journal_is_resumable(
    payloads, data, tmp_path_factory
):
    path = str(tmp_path_factory.mktemp("events") / "journal-broker-a.jsonl")
    events = [{"event": "lease", "unit": f"u{p}"} for p in payloads]
    with EventJournal(path, header=EVENT_HEADER) as journal:
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
    with EventJournal(path, header=EVENT_HEADER) as journal:
        for event in appended:
            journal.append(event)

    # Every line of the healed file parses: the torn fragment is gone.
    with open(path, "rb") as handle:
        records = [json.loads(line) for line in handle.read().splitlines()]
    assert records[0] == dict(EVENT_HEADER, kind="header")
    survived = records[1:-len(appended)]
    assert survived == events[: len(survived)]
    assert records[-len(appended):] == appended
