"""Broker unit tests: queueing, leasing, settlement, cancellation."""

import pytest

from repro.engine import SerialExecutor
from repro.errors import LeaseError, SchedulerBusy, SchedulerError
from repro.scheduler import Broker, DirectoryStore
from repro.telemetry import Telemetry

from .conftest import FakeClock, make_plan


def lease_all(broker, worker="w"):
    return broker.lease(worker, limit=None)


class TestSubmit:
    def test_submit_queues_all_units(self, clock):
        broker = Broker(clock=clock)
        submission = broker.submit(make_plan(4))
        assert broker.pending_count() == 4
        assert submission.submission_id == "sub-feedfacefeed"
        assert not broker.is_settled(submission.submission_id)

    def test_dedupe_on_config_hash(self, clock):
        broker = Broker(clock=clock)
        first = broker.submit(make_plan(4))
        again = broker.submit(make_plan(4, name="same physics"))
        assert again is first
        assert again.deduped == 1
        assert broker.pending_count() == 4  # not 8

    def test_capacity_refuses_whole_submission(self, clock):
        broker = Broker(capacity=6, clock=clock)
        broker.submit(make_plan(4))
        with pytest.raises(SchedulerBusy, match="capacity"):
            broker.submit(make_plan(4, config_hash="beef" * 6))
        # Refusal is atomic: nothing of the second plan was queued.
        assert broker.pending_count() == 4
        assert len(broker.submissions()) == 1

    def test_capacity_counts_only_pending(self, clock):
        broker = Broker(capacity=4, clock=clock)
        broker.submit(make_plan(4))
        for lease in lease_all(broker):
            broker.complete(lease)
        broker.submit(make_plan(4, config_hash="beef" * 6))  # fits now

    def test_bad_knobs_refused(self, clock):
        with pytest.raises(SchedulerError):
            Broker(capacity=0)
        with pytest.raises(SchedulerError):
            Broker(lease_ttl_s=0.0)


class TestLeasing:
    def test_lease_order_is_plan_order(self, clock):
        broker = Broker(clock=clock)
        broker.submit(make_plan(4))
        leases = lease_all(broker)
        assert [l.label for l in leases] == ["u0", "u1", "u2", "u3"]
        assert broker.pending_count() == 0

    def test_priority_wins_across_submissions(self, clock):
        broker = Broker(clock=clock)
        broker.submit(make_plan(2, config_hash="aaaa" * 6), priority=0)
        broker.submit(make_plan(2, config_hash="bbbb" * 6), priority=5)
        leases = lease_all(broker)
        assert [l.submission_id for l in leases[:2]] == [
            "sub-bbbbbbbbbbbb",
            "sub-bbbbbbbbbbbb",
        ]

    def test_equal_priority_is_submission_order(self, clock):
        broker = Broker(clock=clock)
        broker.submit(make_plan(1, config_hash="aaaa" * 6))
        broker.submit(make_plan(1, config_hash="bbbb" * 6))
        leases = lease_all(broker)
        assert [l.submission_id for l in leases] == [
            "sub-aaaaaaaaaaaa",
            "sub-bbbbbbbbbbbb",
        ]

    def test_limit_bounds_the_batch(self, clock):
        broker = Broker(clock=clock)
        broker.submit(make_plan(4))
        assert len(broker.lease("w", limit=2)) == 2
        assert broker.pending_count() == 2

    def test_heartbeat_extends_a_live_lease(self, clock):
        broker = Broker(clock=clock, lease_ttl_s=10.0)
        broker.submit(make_plan(1))
        (lease,) = lease_all(broker)
        clock.advance(8.0)
        refreshed = broker.heartbeat(lease)
        assert refreshed.deadline == clock.now + 10.0
        clock.advance(8.0)  # past the original deadline, not the new one
        assert broker.expire() == []

    def test_expiry_requeues_and_release_wins(self, clock):
        broker = Broker(clock=clock, lease_ttl_s=10.0)
        broker.submit(make_plan(1))
        (stale,) = lease_all(broker, worker="w1")
        clock.advance(11.0)
        (fresh,) = lease_all(broker, worker="w2")
        assert fresh.token != stale.token
        assert broker.complete(fresh, payload={"who": "fresh"}) is True
        # The stale worker's late completion is a discarded duplicate.
        assert broker.complete(stale, payload={"who": "stale"}) is False
        assert broker.unit_payload(fresh.unit_id) == {"who": "fresh"}

    def test_heartbeat_on_stale_lease_raises(self, clock):
        broker = Broker(clock=clock, lease_ttl_s=10.0)
        broker.submit(make_plan(1))
        (stale,) = lease_all(broker)
        clock.advance(11.0)
        lease_all(broker)  # re-leased elsewhere
        with pytest.raises(LeaseError):
            broker.heartbeat(stale)

    def test_expired_but_not_releases_completion_accepted(self, clock):
        # The unit is a pure function: a late result from an expired
        # lease is identical to a redone one, so accept it rather than
        # burning beam time again.
        broker = Broker(clock=clock, lease_ttl_s=10.0)
        broker.submit(make_plan(1))
        (lease,) = lease_all(broker)
        clock.advance(11.0)
        broker.expire()
        assert broker.complete(lease) is True
        assert lease_all(broker) == []


class TestSettlement:
    def test_complete_exactly_once(self, clock):
        broker = Broker(clock=clock)
        broker.submit(make_plan(2))
        leases = lease_all(broker)
        assert broker.complete(leases[0], payload={"n": 1}) is True
        assert broker.complete(leases[0], payload={"n": 2}) is False
        assert broker.unit_payload(leases[0].unit_id) == {"n": 1}

    def test_fail_requeue_and_refail(self, clock):
        broker = Broker(clock=clock)
        sub = broker.submit(make_plan(1))
        (lease,) = lease_all(broker)
        broker.fail(lease, "transient", requeue=True)
        assert broker.pending_count() == 1
        (retry,) = lease_all(broker)
        broker.fail(retry, "fatal")
        assert broker.is_settled(sub.submission_id)
        assert not broker.is_complete(sub.submission_id)

    def test_unknown_unit_raises(self, clock):
        broker = Broker(clock=clock)
        with pytest.raises(LeaseError):
            broker.unit_status("nope/u0")

    def test_entries_in_plan_order(self, clock):
        broker = Broker(clock=clock)
        sub = broker.submit(make_plan(3))
        leases = lease_all(broker)
        # Complete out of order; assembly must be plan order anyway.
        for lease in reversed(leases):
            broker.complete(lease)
        assert broker.is_complete(sub.submission_id)

    def test_cancel_drops_pending_keeps_leased(self, clock):
        broker = Broker(clock=clock)
        sub = broker.submit(make_plan(4))
        leased = broker.lease("w", limit=2)
        dropped = broker.cancel(sub.submission_id)
        assert dropped == 2
        assert broker.pending_count() == 0
        # In-flight leases still settle normally.
        assert broker.complete(leased[0]) is True
        broker.fail(leased[1], "y")
        assert broker.is_settled(sub.submission_id)
        assert broker.submission(sub.submission_id).cancelled

    def test_cancel_unknown_raises(self, clock):
        broker = Broker(clock=clock)
        with pytest.raises(SchedulerError, match="unknown submission"):
            broker.cancel("sub-missing")


class TestStoreIntegration:
    def test_commits_land_in_the_store(self, tmp_path, clock):
        store = DirectoryStore(str(tmp_path / "s"), clock=clock)
        broker = Broker(store=store, clock=clock, broker_id="a")
        broker.submit(make_plan(2))
        for lease in lease_all(broker):
            broker.complete(lease, payload={"key": lease.label})
        assert store.committed_units() == {
            "feedfacefeed/u0",
            "feedfacefeed/u1",
        }

    def test_store_backed_complete_requires_payload(self, tmp_path, clock):
        store = DirectoryStore(str(tmp_path / "s"), clock=clock)
        broker = Broker(store=store, clock=clock)
        broker.submit(make_plan(1))
        (lease,) = lease_all(broker)
        with pytest.raises(SchedulerError, match="payload"):
            broker.complete(lease)

    def test_submit_recovers_committed_units(self, tmp_path, clock):
        store = DirectoryStore(str(tmp_path / "s"), clock=clock)
        store.try_commit("feedfacefeed/u1", {"key": "u1", "n": 1})
        broker = Broker(store=store, clock=clock)
        broker.submit(make_plan(2))
        assert broker.pending_count() == 1
        assert broker.unit_status("feedfacefeed/u1") == "done"
        assert broker.unit_payload("feedfacefeed/u1") == {
            "key": "u1",
            "n": 1,
        }

    def test_two_brokers_never_double_commit(self, tmp_path, clock):
        store = DirectoryStore(str(tmp_path / "s"), clock=clock)
        a = Broker(store=store, clock=clock, broker_id="a", lease_ttl_s=5.0)
        b = Broker(store=store, clock=clock, broker_id="b", lease_ttl_s=5.0)
        a.submit(make_plan(1))
        b.submit(make_plan(1))
        (lease_a,) = lease_all(a, worker="a")
        clock.advance(6.0)  # a's published lease expires
        (lease_b,) = lease_all(b, worker="b")
        assert b.complete(lease_b, payload={"who": "b"}) is True
        # a's late commit loses and adopts b's payload.
        assert a.complete(lease_a, payload={"who": "a"}) is False
        assert a.unit_payload(lease_a.unit_id) == {"who": "b"}
        assert store.read_commit(lease_a.unit_id) == {"who": "b"}

    def test_live_foreign_lease_blocks_leasing(self, tmp_path, clock):
        store = DirectoryStore(str(tmp_path / "s"), clock=clock)
        a = Broker(store=store, clock=clock, broker_id="a", lease_ttl_s=30.0)
        b = Broker(store=store, clock=clock, broker_id="b", lease_ttl_s=30.0)
        a.submit(make_plan(1))
        b.submit(make_plan(1))
        lease_all(a, worker="a")
        assert lease_all(b, worker="b") == []  # blocked by a's lease
        clock.advance(31.0)
        assert len(lease_all(b, worker="b")) == 1  # takeover


class TestDrain:
    def test_drain_runs_everything_in_order(self, clock):
        broker = Broker(clock=clock)
        plan = make_plan(4)
        broker.submit(plan)
        results = broker.drain(SerialExecutor())
        assert [results[u.unit_id] for u in plan.units] == [0, 10, 20, 30]
        assert broker.is_complete(plan.submission_id)

    def test_drain_is_span_free(self, clock):
        # The shim's telemetry contract: scheduling adds counters, never
        # spans -- Campaign.run's tree must stay campaign.run/executor.map.
        telemetry = Telemetry()
        broker = Broker(clock=clock, telemetry=telemetry)
        broker.submit(make_plan(2))
        broker.drain(SerialExecutor(), telemetry=telemetry)
        paths = set(telemetry.tracer.stage_durations())
        assert paths == {"executor.map"}
        counters = telemetry.metrics.counter_values()
        assert counters["scheduler.leased"] == 2
        assert counters["scheduler.completed"] == 2


class TestStatus:
    def test_status_shape(self, clock):
        broker = Broker(capacity=16, clock=clock, broker_id="b-1")
        sub = broker.submit(make_plan(2, name="night"))
        broker.lease("w", limit=1)
        status = broker.status()
        assert status["broker"] == "b-1"
        assert status["capacity"] == 16
        assert status["queued_units"] == 1
        assert status["inflight_units"] == 1
        (entry,) = status["submissions"]
        assert entry["submission_id"] == sub.submission_id
        assert entry["name"] == "night"
        assert entry["units"] == {"pending": 1, "leased": 1}


class TestWorkerQuotas:
    def test_quota_caps_inflight_per_submission(self, clock):
        broker = Broker(clock=clock)
        broker.submit(make_plan(4, max_workers=2))
        leases = lease_all(broker)
        assert len(leases) == 2
        # The quota is on *inflight* units, not total leases ever:
        # settling one frees a slot.
        assert broker.complete(leases[0])
        assert len(lease_all(broker)) == 1

    def test_deferred_units_stay_queued_and_are_counted(self, clock):
        telemetry = Telemetry()
        broker = Broker(clock=clock, telemetry=telemetry)
        broker.submit(make_plan(3, max_workers=1))
        assert len(lease_all(broker)) == 1
        assert broker.pending_count() == 2
        counters = telemetry.metrics.counter_values()
        assert counters["scheduler.quota_deferred"] == 2

    def test_quota_never_starves_other_submissions(self, clock):
        broker = Broker(clock=clock)
        broker.submit(make_plan(3, max_workers=1, priority=9))
        broker.submit(
            make_plan(2, config_hash="beefbeefbeefbeefbeefbeef")
        )
        leases = lease_all(broker)
        # One slot from the throttled high-priority submission, then
        # the unthrottled one drains fully.
        by_sub = {}
        for lease in leases:
            by_sub[lease.submission_id] = by_sub.get(lease.submission_id, 0) + 1
        assert by_sub == {"sub-feedfacefeed": 1, "sub-beefbeefbeef": 2}

    def test_expiry_returns_the_slot(self, clock):
        broker = Broker(clock=clock, lease_ttl_s=30.0)
        broker.submit(make_plan(2, max_workers=1))
        assert len(lease_all(broker)) == 1
        clock.advance(31.0)
        again = lease_all(broker)
        # The expired unit re-queued; the quota still admits only one.
        assert len(again) == 1
        assert broker.pending_count() == 1
