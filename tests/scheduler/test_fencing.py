"""Fencing epochs: exclusive issuance, stale-write rejection, recovery."""

import json
import os

import pytest

from repro.errors import SchedulerError, StaleFencingToken, StoreUnavailable
from repro.scheduler import Broker, DirectoryStore, FencingRegistry
from repro.scheduler.retry import RetryPolicy

from .conftest import make_plan


@pytest.fixture
def store(tmp_path, clock):
    return DirectoryStore(str(tmp_path / "sched"), clock=clock)


class TestRegistry:
    def test_epochs_are_monotonic_and_exclusive(self, tmp_path):
        registry = FencingRegistry(str(tmp_path))
        assert registry.latest_epoch() == 0
        assert registry.register("a") == 1
        assert registry.register("b") == 2
        assert registry.register("a") == 3
        assert registry.latest_epoch() == 3

    def test_two_registries_share_one_ledger(self, tmp_path):
        # The multi-process story in miniature: both see each other's
        # registrations through the directory alone.
        one = FencingRegistry(str(tmp_path))
        two = FencingRegistry(str(tmp_path))
        assert one.register("a") == 1
        assert two.register("b") == 2
        assert one.latest_for("b") == 2
        assert two.latest_for("a") == 1
        assert one.epochs() == {"a": 1, "b": 2}

    def test_latest_for_unknown_broker_is_none(self, tmp_path):
        registry = FencingRegistry(str(tmp_path))
        assert registry.latest_for("ghost") is None

    def test_epoch_files_are_immutable_records(self, tmp_path):
        registry = FencingRegistry(str(tmp_path))
        registry.register("a")
        path = os.path.join(str(tmp_path), "epochs", "epoch-00000001.json")
        record = json.loads(open(path).read())
        assert record["broker"] == "a"
        assert record["epoch"] == 1

    def test_stray_files_never_block_registration(self, tmp_path):
        registry = FencingRegistry(str(tmp_path))
        open(os.path.join(str(tmp_path), "epochs", "epoch-junk.json"), "w")
        assert registry.register("a") == 1


class TestStoreFencing:
    def test_superseded_epoch_commit_rejected_and_never_adopted(
        self, store
    ):
        e_a = store.register_epoch("a")
        e_b = store.register_epoch("b")
        # b took the unit over (its lease carries the higher epoch);
        # a's late commit must be rejected before touching the store.
        store.write_lease("h/u1", "b", ttl_s=30.0, epoch=e_b)
        with pytest.raises(StaleFencingToken):
            store.try_commit("h/u1", {"who": "a"}, epoch=e_a, owner="a")
        assert store.read_commit("h/u1") is None  # nothing was adopted
        assert store.counters["fenced"] == 1
        # The legitimate holder commits fine.
        assert store.try_commit("h/u1", {"who": "b"}, epoch=e_b, owner="b")
        assert store.read_commit("h/u1") == {"who": "b"}

    def test_superseded_incarnation_rejected(self, store):
        e_old = store.register_epoch("a")
        store.register_epoch("a")  # a newer incarnation of the same id
        with pytest.raises(StaleFencingToken):
            store.write_lease("h/u1", "a", ttl_s=30.0, epoch=e_old)

    def test_unfenced_writes_always_pass(self, store):
        # epoch=None is the legacy/tooling path: plain link exclusivity.
        store.register_epoch("b")
        store.write_lease("h/u1", "b", ttl_s=30.0, epoch=1)
        assert store.try_commit("h/u1", {"n": 1}) is True

    def test_commit_record_carries_the_epoch(self, store):
        epoch = store.register_epoch("a")
        store.try_commit("h/u1", {"n": 1}, epoch=epoch, owner="a")
        record = store.read_commit_record("h/u1")
        assert record["epoch"] == epoch
        assert record["writer"].startswith("a:")
        assert record["format"] == 2


class TestBrokerFencing:
    def test_broker_registers_on_construction(self, store, clock):
        a = Broker(store=store, broker_id="a", clock=clock)
        b = Broker(store=store, broker_id="b", clock=clock)
        assert (a.epoch, b.epoch) == (1, 2)
        assert store.health()["epochs"] == {"a": 1, "b": 2}

    def test_fenced_commit_requeues_and_reregisters(self, store, clock):
        a = Broker(store=store, broker_id="a", clock=clock)
        a.submit(make_plan(n=1))
        (lease,) = a.lease("wa")
        # Another broker supersedes a on this unit while a is working.
        usurper = store.register_epoch("b")
        store.write_lease(lease.unit_id, "b", ttl_s=30.0, epoch=usurper)
        old_epoch = a.epoch
        assert a.complete(lease, payload={"who": "a"}) is False
        # The stale payload was never adopted...
        assert store.read_commit(lease.unit_id) is None
        # ...the unit went back to the queue, and a re-registered.
        assert a.unit_status(lease.unit_id) == "pending"
        assert a.epoch > usurper > old_epoch

    def test_fenced_commit_adopts_existing_winner(self, store, clock):
        a = Broker(store=store, broker_id="a", clock=clock)
        a.submit(make_plan(n=1))
        (lease,) = a.lease("wa")
        usurper = store.register_epoch("b")
        store.write_lease(lease.unit_id, "b", ttl_s=30.0, epoch=usurper)
        store.try_commit(
            lease.unit_id, {"who": "b"}, epoch=usurper, owner="b"
        )
        assert a.complete(lease, payload={"who": "a"}) is False
        assert a.unit_status(lease.unit_id) == "done"
        assert a.unit_payload(lease.unit_id) == {"who": "b"}

    def test_fenced_heartbeat_raises_lease_error(self, store, clock):
        from repro.errors import LeaseError

        a = Broker(store=store, broker_id="a", clock=clock)
        a.submit(make_plan(n=1))
        (lease,) = a.lease("wa")
        usurper = store.register_epoch("b")
        store.write_lease(lease.unit_id, "b", ttl_s=30.0, epoch=usurper)
        with pytest.raises(LeaseError):
            a.heartbeat(lease)
        assert a.unit_status(lease.unit_id) == "pending"

    def test_takeover_broker_refences_past_dead_higher_epoch(
        self, store, clock
    ):
        # A dead broker left a higher-epoch lease behind; the survivor
        # (with the *lower* epoch) must still be able to take over by
        # re-registering, not be exiled forever.
        a = Broker(store=store, broker_id="a", clock=clock)
        plan = make_plan(n=1)
        a.submit(plan)
        dead = store.register_epoch("dead")
        unit_id = plan.units[0].unit_id
        store.write_lease(unit_id, "dead", ttl_s=30.0, epoch=dead)
        clock.advance(31.0)  # the dead broker's lease expires
        leases = a.lease("wa")
        assert [lease.unit_id for lease in leases] == [unit_id]
        assert a.epoch > dead
        assert a.complete(leases[0], payload={"who": "a"}) is True


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(attempts=5, base_delay_s=0.01, max_delay_s=0.05)
        assert list(policy.delays()) == [0.01, 0.02, 0.04, 0.05]
        assert list(policy.delays()) == list(policy.delays())

    def test_transient_errors_retry_then_degrade(self):
        import errno

        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            raise OSError(errno.EIO, "injected")

        policy = RetryPolicy(attempts=3, base_delay_s=0.0)
        with pytest.raises(StoreUnavailable):
            policy.run("op", flaky, sleep=lambda _s: None)
        assert calls["n"] == 3

    def test_permanent_errors_surface_immediately(self):
        import errno

        calls = {"n": 0}

        def doomed():
            calls["n"] += 1
            raise OSError(errno.EACCES, "denied")

        policy = RetryPolicy(attempts=5, base_delay_s=0.0)
        with pytest.raises(OSError) as excinfo:
            policy.run("op", doomed, sleep=lambda _s: None)
        assert excinfo.value.errno == errno.EACCES
        assert calls["n"] == 1

    def test_bad_budget_refused(self):
        with pytest.raises(SchedulerError):
            RetryPolicy(attempts=0)
        with pytest.raises(SchedulerError):
            RetryPolicy(base_delay_s=-1.0)
