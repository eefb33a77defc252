"""Property-based lease-semantics tests for the broker.

The example tests in test_broker.py pick illustrative interleavings by
hand; a real campaign service interleaves lease / heartbeat / expire /
complete / crash in whatever order the OS scheduler and the beam allow.
These properties drive the broker with hypothesis-drawn operation
sequences and assert the two invariants everything else rests on:

* **exactly-once**: under any interleaving, ``complete`` returns True
  at most once per unit, and driving the system to quiescence settles
  every unit exactly once;
* **no double commit**: two brokers sharing one ``DirectoryStore``
  (the takeover story) never both win a commit for the same unit, and
  both end up holding the winner's payload.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LeaseError
from repro.scheduler import Broker, DirectoryStore

from .conftest import FakeClock, make_plan

# Op codes for the drawn schedule.  Each op is (code, pick) where pick
# selects a held lease / unit; the driver maps it modulo the live set so
# every drawn sequence is valid by construction (no rejected examples).
LEASE, HEARTBEAT, EXPIRE, COMPLETE, FAIL_REQUEUE, ADVANCE, DROP = range(7)

ops = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 7)),
    min_size=1,
    max_size=40,
)


class Driver:
    """Applies a drawn op sequence to one broker, tracking wins."""

    def __init__(self, broker, clock, n_units):
        self.broker = broker
        self.clock = clock
        self.n_units = n_units
        self.held = []  # leases this "worker pool" believes it owns
        self.wins = {}  # unit_id -> count of complete()==True

    def _payload(self, lease):
        return {"key": lease.label}

    def step(self, code, pick):
        broker, held = self.broker, self.held
        if code == LEASE:
            held.extend(broker.lease(f"w{pick}", limit=1 + pick % 3))
        elif code == ADVANCE:
            self.clock.advance(float(1 + pick))
        elif code == EXPIRE:
            broker.expire()
        elif not held:
            return
        elif code == HEARTBEAT:
            lease = held[pick % len(held)]
            try:
                refreshed = broker.heartbeat(lease)
            except LeaseError:
                held.remove(lease)  # stale -- ownership already moved
            else:
                held[held.index(lease)] = refreshed
        elif code == COMPLETE:
            lease = held.pop(pick % len(held))
            if broker.complete(lease, payload=self._payload(lease)):
                self.wins[lease.unit_id] = self.wins.get(lease.unit_id, 0) + 1
        elif code == FAIL_REQUEUE:
            lease = held.pop(pick % len(held))
            try:
                broker.fail(lease, "injected", requeue=True)
            except LeaseError:
                pass  # lease went stale mid-flight; unit is elsewhere
        elif code == DROP:
            # A crashed worker: forget the lease without telling anyone.
            held.pop(pick % len(held))

    def drive_to_quiescence(self):
        """Finish every unit the straightforward way."""
        for _ in range(self.n_units * 4):
            self.clock.advance(10_000.0)
            for lease in self.broker.lease("sweeper", limit=None):
                if self.broker.complete(lease, payload=self._payload(lease)):
                    self.wins[lease.unit_id] = (
                        self.wins.get(lease.unit_id, 0) + 1
                    )
            if self.broker.pending_count() == 0 and not self._inflight():
                break

    def _inflight(self):
        return any(
            self.broker.unit_status(f"feedfacefeed/u{i}") == "leased"
            for i in range(self.n_units)
        )


@settings(max_examples=120, deadline=None)
@given(schedule=ops, n_units=st.integers(1, 6))
def test_exactly_once_under_any_interleaving(schedule, n_units):
    clock = FakeClock()
    broker = Broker(clock=clock, lease_ttl_s=10.0)
    broker.submit(make_plan(n_units))
    driver = Driver(broker, clock, n_units)

    for code, pick in schedule:
        driver.step(code, pick)
        # Invariant holds mid-flight, not just at the end.
        assert all(count == 1 for count in driver.wins.values())

    driver.drive_to_quiescence()

    sid = "sub-feedfacefeed"
    assert broker.is_complete(sid)
    # Every unit settled exactly once, whatever the schedule did.
    assert sorted(driver.wins) == [
        f"feedfacefeed/u{i}" for i in range(n_units)
    ]
    assert all(count == 1 for count in driver.wins.values())
    for i in range(n_units):
        assert broker.unit_payload(f"feedfacefeed/u{i}") == {"key": f"u{i}"}


@settings(max_examples=60, deadline=None)
@given(
    schedule_a=ops,
    schedule_b=ops,
    interleave=st.lists(st.booleans(), min_size=1, max_size=80),
    n_units=st.integers(1, 4),
)
def test_two_brokers_never_double_commit(
    schedule_a, schedule_b, interleave, n_units, tmp_path_factory
):
    root = str(tmp_path_factory.mktemp("shared") / "sched")
    clock = FakeClock()
    store = DirectoryStore(root, clock=clock)
    drivers = []
    for broker_id, schedule in (("a", schedule_a), ("b", schedule_b)):
        broker = Broker(
            store=store,
            clock=clock,
            broker_id=f"broker-{broker_id}",
            lease_ttl_s=10.0,
        )
        broker.submit(make_plan(n_units))
        drivers.append((Driver(broker, clock, n_units), list(schedule)))

    # Interleave the two schedules bool-by-bool; leftovers run in order.
    for turn in interleave:
        driver, schedule = drivers[0 if turn else 1]
        if schedule:
            driver.step(*schedule.pop(0))
    for driver, schedule in drivers:
        for code, pick in schedule:
            driver.step(code, pick)
        driver.drive_to_quiescence()

    unit_ids = [f"feedfacefeed/u{i}" for i in range(n_units)]
    wins_a, wins_b = (d.wins for d, _ in drivers)
    for unit_id in unit_ids:
        # The commit store is the arbiter: exactly one broker won, and
        # both hold the winner's payload.
        assert wins_a.get(unit_id, 0) + wins_b.get(unit_id, 0) == 1
        payload = store.read_commit(unit_id)
        assert payload is not None
        for driver, _ in drivers:
            assert driver.broker.unit_payload(unit_id) == payload
    assert store.committed_units() == set(unit_ids)
    for driver, _ in drivers:
        assert driver.broker.is_complete("sub-feedfacefeed")
