"""DirectoryStore: exclusive commits, advisory leases."""

import json
import os

import pytest

from repro.errors import ReproIOError
from repro.scheduler import DirectoryStore

from .conftest import FakeClock


@pytest.fixture
def store(tmp_path, clock):
    return DirectoryStore(str(tmp_path / "sched"), clock=clock)


class TestCommits:
    def test_first_commit_wins(self, store):
        assert store.try_commit("h/u1", {"n": 1}) is True
        assert store.try_commit("h/u1", {"n": 2}) is False
        assert store.read_commit("h/u1") == {"n": 1}

    def test_missing_commit_reads_none(self, store):
        assert store.read_commit("h/u9") is None

    def test_committed_units_roundtrips_ids(self, store):
        store.try_commit("h/u1", {})
        store.try_commit("h/u2", {})
        assert store.committed_units() == {"h/u1", "h/u2"}

    def test_no_tmp_droppings(self, store, tmp_path):
        store.try_commit("h/u1", {"n": 1})
        store.try_commit("h/u1", {"n": 2})  # loser must clean up too
        commits = os.listdir(tmp_path / "sched" / "commits")
        assert commits == ["h__u1.json"]

    def test_corrupt_commit_is_quarantined(self, store, tmp_path):
        store.try_commit("h/u1", {"n": 1})
        path = tmp_path / "sched" / "commits" / "h__u1.json"
        path.write_text("{torn")
        # A record that fails verification is not adopted: it moves to
        # quarantine/ with a reason file, and the unit reads as absent
        # (the caller re-plans it).
        assert store.read_commit("h/u1") is None
        assert not path.exists()
        qdir = tmp_path / "sched" / "quarantine"
        assert (qdir / "h__u1.json").read_text() == "{torn"
        reason = json.loads((qdir / "h__u1.reason.json").read_text())
        assert reason["unit_id"] == "h/u1"
        assert reason["reason"] == "decode-error"
        assert store.counters["quarantined"] == 1
        # The commit name is free again: the re-planned unit commits.
        assert store.try_commit("h/u1", {"n": 1}) is True
        assert store.read_commit("h/u1") == {"n": 1}

    def test_check_config_passes_its_own_commits(self, store):
        store.check_config("aaaabbbbcccc" + "d" * 52)  # empty store
        store.try_commit("aaaabbbbcccc/u1", {})
        store.check_config("aaaabbbbcccc" + "d" * 52)

    def test_check_config_refuses_another_configs_commit(self, store):
        # Unit ids are <hash12>/<label>: one commit under another hash12
        # is enough, and the refusal names both hashes.
        store.try_commit("aaaabbbbcccc/u1", {})
        store.try_commit("111122223333/u2", {})
        with pytest.raises(ReproIOError) as excinfo:
            store.check_config("aaaabbbbcccc" + "d" * 52)
        message = str(excinfo.value)
        assert "different configuration" in message
        assert "111122223333" in message and "aaaabbbbcccc" in message

    def test_two_stores_one_directory(self, tmp_path, clock):
        # The multi-process story in miniature: the second store sees
        # the first one's commit and cannot overwrite it.
        a = DirectoryStore(str(tmp_path / "s"), clock=clock)
        b = DirectoryStore(str(tmp_path / "s"), clock=clock)
        assert a.try_commit("h/u1", {"who": "a"})
        assert not b.try_commit("h/u1", {"who": "b"})
        assert b.read_commit("h/u1") == {"who": "a"}


class TestLeases:
    def test_write_read_clear(self, store, clock):
        store.write_lease("h/u1", "broker-a", ttl_s=30.0)
        lease = store.read_lease("h/u1")
        assert lease["owner"] == "broker-a"
        assert lease["deadline_unix"] == clock.now + 30.0
        store.clear_lease("h/u1")
        assert store.read_lease("h/u1") is None
        store.clear_lease("h/u1")  # idempotent

    def test_refresh_moves_the_deadline(self, store, clock):
        store.write_lease("h/u1", "broker-a", ttl_s=30.0)
        clock.advance(20.0)
        store.write_lease("h/u1", "broker-a", ttl_s=30.0)
        assert store.read_lease("h/u1")["deadline_unix"] == clock.now + 30.0

    def test_foreign_lease_live(self, store, clock):
        store.write_lease("h/u1", "broker-a", ttl_s=30.0)
        assert store.foreign_lease_live("h/u1", "broker-b") is True
        # Our own lease is never "foreign".
        assert store.foreign_lease_live("h/u1", "broker-a") is False
        clock.advance(31.0)
        assert store.foreign_lease_live("h/u1", "broker-b") is False

    def test_torn_lease_treated_as_absent(self, store, tmp_path):
        store.write_lease("h/u1", "broker-a", ttl_s=30.0)
        (tmp_path / "sched" / "leases" / "h__u1.json").write_text("{no")
        assert store.read_lease("h/u1") is None
        assert store.foreign_lease_live("h/u1", "broker-b") is False

    def test_lease_file_is_valid_json(self, store, tmp_path):
        store.write_lease("h/u1", "broker-a", ttl_s=5.0)
        raw = (tmp_path / "sched" / "leases" / "h__u1.json").read_text()
        assert json.loads(raw)["unit_id"] == "h/u1"
