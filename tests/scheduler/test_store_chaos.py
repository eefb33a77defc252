"""FaultyStore: deterministic store-level fault injection.

Each fault kind is exercised end-to-end against the hardened commit
path, then hypothesis drives two brokers over one faulted store with
arbitrary fault schedules and asserts the exactly-once/byte-agreement
invariants the assembly layer rests on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChaosError, StoreUnavailable
from repro.scheduler import (
    Broker,
    DirectoryStore,
    FaultyStore,
    StoreChaosSpec,
)

from .conftest import FakeClock, make_plan


def faulty(tmp_path, spec, **kwargs):
    kwargs.setdefault("sleep", lambda _s: None)  # full-speed backoff
    return FaultyStore(str(tmp_path / "sched"), spec, **kwargs)


class TestSpec:
    def test_rejects_unknown_fields(self):
        with pytest.raises(ChaosError):
            StoreChaosSpec.from_dict({"torn_right": [0]})

    def test_rejects_bad_indices(self):
        with pytest.raises(ChaosError):
            StoreChaosSpec(torn_write=(-1,))
        with pytest.raises(ChaosError):
            StoreChaosSpec(stale_read=(True,))

    def test_json_round_trip_inline_and_file(self, tmp_path):
        spec = StoreChaosSpec.from_json('{"torn_write": [0, 3]}')
        assert spec.torn_write == (0, 3)
        assert spec.total_faults() == 2
        path = tmp_path / "chaos.json"
        path.write_text('{"stale_read": [1], "transient_errno": [2]}')
        spec = StoreChaosSpec.from_json(str(path))
        assert spec.stale_read == (1,)
        assert spec.transient_errno == (2,)

    def test_empty_spec_is_a_no_op(self, tmp_path):
        store = faulty(tmp_path, StoreChaosSpec())
        assert store.try_commit("h/u1", {"n": 1}) is True
        assert store.read_commit("h/u1") == {"n": 1}
        assert sum(store.injected.values()) == 0


class TestFaultKinds:
    def test_torn_write_quarantined_then_recommitted(self, tmp_path):
        store = faulty(tmp_path, StoreChaosSpec(torn_write=(0,)))
        # The torn record is caught by the verify-after-write readback:
        # the commit reports failure, the record is quarantined, and
        # the freed name accepts the retry.
        assert store.try_commit("h/u1", {"n": 1}) is False
        assert store.injected["torn_write"] == 1
        assert store.counters["quarantined"] == 1
        (reason,) = store.quarantined_units()
        assert reason["unit_id"] == "h/u1"
        assert reason["reason"] == "decode-error"
        assert store.try_commit("h/u1", {"n": 1}) is True
        assert store.read_commit("h/u1") == {"n": 1}

    def test_post_commit_corruption_quarantined(self, tmp_path):
        store = faulty(tmp_path, StoreChaosSpec(corrupt_commit=(0,)))
        assert store.try_commit("h/u1", {"n": 1}) is False
        (reason,) = store.quarantined_units()
        assert reason["reason"] == "checksum-mismatch"

    def test_duplicate_link_ghost_is_a_lost_race(self, tmp_path):
        store = faulty(tmp_path, StoreChaosSpec(duplicate_link=(0,)))
        # The link call "wins" but another writer's (valid) bytes
        # survive: the caller must treat it as a lost race and adopt.
        assert store.try_commit("h/u1", {"n": 1}) is False
        record = store.read_commit_record("h/u1")
        assert record["writer"].startswith("ghost:")
        assert store.read_commit("h/u1") == {"n": 1}  # adoptable

    def test_stale_read_during_verify_trusts_the_link(self, tmp_path):
        store = faulty(tmp_path, StoreChaosSpec(stale_read=(0,)))
        assert store.try_commit("h/u1", {"n": 1}) is True
        assert store.counters["retries"] >= 1

    def test_transient_errno_retried_within_budget(self, tmp_path):
        store = faulty(tmp_path, StoreChaosSpec(transient_errno=(0,)))
        assert store.try_commit("h/u1", {"n": 1}) is True
        assert store.counters["retries"] == 1
        assert store.injected["transient_errno"] == 1

    def test_exhausted_budget_degrades_to_typed_failure(self, tmp_path):
        storm = StoreChaosSpec(transient_errno=tuple(range(16)))
        store = faulty(tmp_path, storm)
        with pytest.raises(StoreUnavailable):
            store.try_commit("h/u1", {"n": 1})

    def test_lease_traffic_is_never_faulted(self, tmp_path):
        # Op indices count commit-path I/O only: lease writes/reads
        # must neither consume indices nor be faulted (they are
        # advisory and, in the live service, wall-clock-timed).
        store = faulty(tmp_path, StoreChaosSpec(torn_write=(0, 1, 2)))
        store.write_lease("h/u1", "a", ttl_s=30.0)
        assert store.read_lease("h/u1")["owner"] == "a"
        assert sum(store.injected.values()) == 0
        assert store.try_commit("h/u1", {"n": 1}) is False  # torn fires now


class TestBrokerUnderChaos:
    def test_drain_survives_a_fault_storm(self, tmp_path):
        clock = FakeClock()
        spec = StoreChaosSpec(
            torn_write=(0,),
            transient_errno=(1,),
            corrupt_commit=(2,),
            stale_read=(8,),
        )
        store = faulty(tmp_path, spec, clock=clock)
        broker = Broker(store=store, clock=clock, broker_id="a")
        broker.submit(make_plan(n=3))
        for _ in range(6):
            leases = broker.lease("w", limit=None)
            for lease in leases:
                broker.complete(lease, payload={"key": lease.label})
            if broker.is_complete("sub-feedfacefeed"):
                break
            clock.advance(1_000.0)
        assert broker.is_complete("sub-feedfacefeed")
        assert store.counters["quarantined"] >= 2
        for i in range(3):
            assert store.read_commit(f"feedfacefeed/u{i}") == {
                "key": f"u{i}"
            }


# Bounded fault schedules: each list stays below the 5-attempt retry
# budget so a drawn storm can slow the drain but never wedge it.
fault_indices = st.lists(st.integers(0, 60), max_size=2, unique=True)

chaos_specs = st.builds(
    StoreChaosSpec,
    torn_write=fault_indices,
    corrupt_commit=fault_indices,
    duplicate_link=fault_indices,
    stale_read=fault_indices,
    transient_errno=fault_indices,
)


@settings(max_examples=60, deadline=None)
@given(spec=chaos_specs, n_units=st.integers(1, 4))
def test_two_brokers_exactly_once_under_any_fault_schedule(
    spec, n_units, tmp_path_factory
):
    """The tentpole property: any FaultyStore schedule still yields
    at-most-once commits, full completion on both brokers, and
    byte-identical adopted payloads."""
    root = str(tmp_path_factory.mktemp("chaos") / "sched")
    clock = FakeClock()
    store = FaultyStore(root, spec, clock=clock, sleep=lambda _s: None)
    brokers = []
    for broker_id in ("a", "b"):
        broker = Broker(
            store=store,
            clock=clock,
            broker_id=f"broker-{broker_id}",
            lease_ttl_s=10.0,
        )
        broker.submit(make_plan(n_units))
        brokers.append(broker)

    wins = {broker.broker_id: {} for broker in brokers}
    for _ in range(n_units * 6):
        for broker in brokers:
            clock.advance(1_000.0)
            for lease in broker.lease(broker.broker_id, limit=None):
                if broker.complete(lease, payload={"key": lease.label}):
                    unit_wins = wins[broker.broker_id]
                    unit_wins[lease.unit_id] = (
                        unit_wins.get(lease.unit_id, 0) + 1
                    )
        if all(b.is_complete("sub-feedfacefeed") for b in brokers):
            break

    # Verify through an UN-faulted store on the same root: the faulted
    # one would spend leftover fault indices on these assertion reads.
    observer = DirectoryStore(root, clock=clock)
    unit_ids = [f"feedfacefeed/u{i}" for i in range(n_units)]
    for broker in brokers:
        assert broker.is_complete("sub-feedfacefeed")
    for unit_id in unit_ids:
        total = sum(w.get(unit_id, 0) for w in wins.values())
        # A ghost duplicate-link win means *neither* broker's complete
        # returned True for that unit; without that fault kind in the
        # schedule, exactly one must have won.
        assert total <= 1
        if not spec.duplicate_link:
            assert total == 1
        payload = observer.read_commit(unit_id)
        assert payload is not None
        for broker in brokers:
            assert broker.unit_payload(unit_id) == payload
    assert observer.committed_units() == set(unit_ids)
    # Every quarantined record left a machine-readable reason behind.
    reasons = observer.quarantined_units()
    assert len(reasons) == store.counters["quarantined"]
    assert all(r["reason"] for r in reasons)
