"""The broker's per-submission index against a brute-force recount.

The broker keeps each submission's unit records and state counts as
units move, so no query scans every unit ever submitted.  Hypothesis
drives random submit / lease / complete / fail / requeue / expire /
cancel sequences over several submissions; after every step each
query must equal a recount over the per-unit accessors.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler import DONE, LEASED, PENDING, Broker

from .conftest import FakeClock, make_plan

SUBMIT, LEASE, COMPLETE, FAIL, REQUEUE, EXPIRE, CANCEL = range(7)

ops = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 11)),
    min_size=1,
    max_size=60,
)


def _recount(broker, sid):
    """``(state counts, payloads in plan order)`` unit by unit."""
    counts, payloads = {}, []
    units = sorted(broker.submission(sid).plan.units, key=lambda u: u.seq)
    for planned in units:
        state = broker.unit_status(planned.unit_id)
        counts[state] = counts.get(state, 0) + 1
        payload = broker.unit_payload(planned.unit_id)
        if payload is not None:
            payloads.append(payload)
    return counts, payloads


def _check(broker):
    status = broker.status()
    listed = {entry["submission_id"]: entry for entry in status["submissions"]}
    assert list(listed) == [s.submission_id for s in broker.submissions()]
    queued = inflight = 0
    for sid, entry in listed.items():
        counts, payloads = _recount(broker, sid)
        assert entry["units"] == counts
        assert broker.is_settled(sid) == (
            not counts.get(PENDING) and not counts.get(LEASED)
        )
        assert broker.is_complete(sid) == (set(counts) == {DONE})
        assert broker.entries_for(sid) == payloads
        quota = broker.submission(sid).max_workers
        assert quota is None or counts.get(LEASED, 0) <= quota
        queued += counts.get(PENDING, 0)
        inflight += counts.get(LEASED, 0)
    assert status["queued_units"] == broker.pending_count() == queued
    assert status["inflight_units"] == inflight


@settings(max_examples=200, deadline=None)
@given(ops)
def test_index_matches_a_recount(ops):
    clock = FakeClock()
    broker = Broker(lease_ttl_s=5.0, clock=clock)
    held, submitted = [], []
    for code, pick in ops:
        if code == SUBMIT:
            plan = make_plan(
                n=1 + pick % 4,
                config_hash=f"{pick % 5:02d}" * 12,
                priority=pick % 3,
                max_workers=1 if pick % 2 else None,
            )
            submitted.append(broker.submit(plan).submission_id)
        elif code == LEASE:
            held.extend(broker.lease(f"w{pick}", limit=1 + pick % 3))
        elif code == EXPIRE:
            clock.advance(float(pick))
            broker.expire()
        elif code == CANCEL:
            if submitted:
                broker.cancel(submitted[pick % len(submitted)])
        elif held:
            lease = held.pop(pick % len(held))
            if code == COMPLETE:
                broker.complete(lease, payload={"unit": lease.unit_id})
            else:
                broker.fail(lease, "injected", requeue=code == REQUEUE)
        _check(broker)
