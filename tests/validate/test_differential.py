"""The differential harness: paired configurations that must agree."""

import dataclasses
import os
import tempfile

import numpy as np
import pytest

import repro.codecs
from repro.codecs import list_codecs
from repro.engine import ParallelExecutor
from repro.errors import ValidationError
from repro.harness.campaign import Campaign
from repro.resilient.journal import CampaignJournal
from repro.scheduler import (
    Broker,
    DirectoryStore,
    FaultyStore,
    StoreChaosSpec,
)
from repro.validate import (
    DifferentialRunner,
    canonical_campaign_json,
    diff_encoded,
)
from repro.validate.differential import (
    MAX_FIELD_DIFFS,
    ON_DISK_PAIRINGS,
    PAIRINGS,
)

SEED = 2023
SCALE = 0.005


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("differential"))
    return DifferentialRunner(seed=SEED, time_scale=SCALE, workdir=workdir)


class TestCanonicalJson:
    def test_repeatable_and_sorted(self):
        from repro import Campaign

        campaign = Campaign(seed=3, time_scale=0.002).run()
        once = canonical_campaign_json(campaign)
        again = canonical_campaign_json(campaign)
        assert once == again
        # Sorted keys: deterministic byte layout.
        assert once.index('"schema"') < once.index('"sessions"')
        assert once.index('"sessions"') < once.index('"sram_bits"')


class TestDiffEncoded:
    def test_equal_trees_have_no_diffs(self):
        assert diff_encoded({"a": [1, {"b": 2}]}, {"a": [1, {"b": 2}]}) == []

    def test_leaf_difference_named_by_path(self):
        diffs = diff_encoded({"a": {"b": [1, 2]}}, {"a": {"b": [1, 3]}})
        assert len(diffs) == 1
        assert diffs[0].path == "$.a.b[1]"

    def test_missing_key_reported(self):
        diffs = diff_encoded({"a": 1}, {})
        assert diffs[0].a != "<absent>" and diffs[0].b == "<absent>"

    def test_length_mismatch_reported_at_node(self):
        diffs = diff_encoded([1, 2, 3], [1, 2])
        assert diffs[0].a == "list[3]"

    def test_diff_count_capped(self):
        a = {str(i): i for i in range(50)}
        b = {str(i): i + 1 for i in range(50)}
        assert len(diff_encoded(a, b)) == MAX_FIELD_DIFFS


class TestPairings:
    def test_pairing_order_and_names(self, runner):
        assert tuple(runner.pairings()) == PAIRINGS

    def test_unknown_pairing_rejected(self, runner):
        with pytest.raises(ValidationError):
            runner.run("quantum")

    def test_executor_pairing_byte_identical(self, runner):
        report = runner.run("executor")
        assert report.ok, report.render()
        assert report.field_diffs == []

    def test_telemetry_pairing_byte_identical(self, runner):
        report = runner.run("telemetry")
        assert report.ok, report.render()

    def test_injector_pairing_statistically_consistent(self, runner):
        report = runner.run("injector")
        assert report.ok, report.render()
        # One upset and one failure gate per session -- a statistical
        # comparison, never a byte one (draw layouts legitimately differ).
        assert len(report.gates) == 8
        assert all("injector" in g.gate for g in report.gates)

    def test_resume_pairing_byte_identical(self, runner):
        report = runner.run("resume")
        assert report.ok, report.render()

    def test_divergence_is_localized_not_just_detected(self, runner):
        # Different seeds = deliberately different campaigns: the diff
        # must name the JSON paths that drifted, not merely fail.
        from repro import Campaign
        import json

        a = Campaign(seed=1, time_scale=0.002).run()
        b = Campaign(seed=2, time_scale=0.002).run()
        report = runner._byte_report(
            "executor", "seed 1", a, "seed 2", b
        )
        assert not report.ok
        assert report.field_diffs
        assert all(d.path.startswith("$") for d in report.field_diffs)
        # The diff survives a JSON round trip (it is report material).
        assert json.dumps(report.to_dict())

    def test_invalid_time_scale_rejected(self):
        with pytest.raises(ValidationError):
            DifferentialRunner(time_scale=0.0)


# -- one-leaf drifts on a pairing's second side ---------------------------------
#
# Each helper perturbs one leaf of what the second side of a byte
# pairing produces, through that pairing's own plumbing, and returns
# the JSON path the drift must be reported at.


def _drift_parallel_map(monkeypatch):
    honest = ParallelExecutor.map

    def drifted(self, units, telemetry=None):
        results = honest(self, units, telemetry=telemetry)
        return [(session, bits + 1, snap) for session, bits, snap in results]

    monkeypatch.setattr(ParallelExecutor, "map", drifted)
    return "$.sram_bits"


def _drift_second_flight(monkeypatch):
    # Both sides fly a Campaign, the reference first.
    honest = Campaign.run
    flights = []

    def drifted(self):
        result = honest(self)
        flights.append(result)
        if len(flights) == 2:
            result.sram_bits += 1
        return result

    monkeypatch.setattr(Campaign, "run", drifted)
    return "$.sram_bits"


def _drift_journal_readback(monkeypatch):
    honest = CampaignJournal.load.__func__

    def drifted(cls, path):
        loaded = honest(cls, path)
        entries = {
            key: dataclasses.replace(entry, sram_bits=entry.sram_bits + 1)
            for key, entry in loaded.entries.items()
        }
        return dataclasses.replace(loaded, entries=entries)

    monkeypatch.setattr(CampaignJournal, "load", classmethod(drifted))
    return "$.sram_bits"


def _drift_commits_by(*broker_ids):
    def _drift_commits(monkeypatch):
        honest = Broker.complete

        def drifted(self, lease, result, payload=None):
            if payload is not None and self.broker_id in broker_ids:
                session = dict(payload["session"])
                session["upsets_duration_s"] += 1.0
                payload = dict(payload, session=session)
            return honest(self, lease, result, payload=payload)

        monkeypatch.setattr(Broker, "complete", drifted)
        return "$.sessions.session4.upsets_duration_s"

    return _drift_commits


class TestByteGatesCanFail:
    """Every byte pairing reports a one-leaf drift on its second side
    as a failed byte gate, and names the drifted JSON path."""

    @pytest.mark.parametrize(
        "pairing, drift",
        [
            ("executor", _drift_parallel_map),
            ("telemetry", _drift_second_flight),
            ("tech_anchor", _drift_second_flight),
            ("resume", _drift_journal_readback),
            ("broker", _drift_commits_by("diff-broker")),
            ("lease_resume", _drift_commits_by("survivor")),
            ("store_chaos", _drift_commits_by("chaos-a", "chaos-b")),
        ],
    )
    def test_one_leaf_drift_fails_and_is_localized(
        self, runner, monkeypatch, pairing, drift
    ):
        path = drift(monkeypatch)
        report = runner.run(pairing)
        gates = {gate.gate: gate for gate in report.gates}
        assert not gates[f"differential/{pairing}"].ok
        assert path in [d.path for d in report.field_diffs], report.render()


# -- the mechanism each broker-pairing gate checks, broken ------------------------


def _foreign_leases_never_live(monkeypatch):
    # Broker B no longer sees A's published leases, so it leases past
    # them instead of waiting for them to expire.
    monkeypatch.setattr(
        DirectoryStore,
        "foreign_lease_live",
        lambda self, unit_id, owner, now=None: False,
    )


def _starve_broker_b(monkeypatch):
    honest = Broker.lease

    def starved(self, worker, limit=1, now=None):
        if self.broker_id == "chaos-b":
            return []
        return honest(self, worker, limit=limit, now=now)

    monkeypatch.setattr(Broker, "lease", starved)


def _inject_no_faults(monkeypatch):
    honest = FaultyStore.__init__

    def inert(self, root, spec, **kwargs):
        honest(self, root, StoreChaosSpec(), **kwargs)

    monkeypatch.setattr(FaultyStore, "__init__", inert)


class TestPairingGatesCanFail:
    """The pickup, convergence and quarantine gates each fail when the
    mechanism they check is broken."""

    @pytest.mark.parametrize(
        "gate, breakage, measured",
        [
            (
                "lease_resume/pickup",
                _foreign_leases_never_live,
                "leased-past-live=2",
            ),
            ("store_chaos/convergence", _starve_broker_b, "rounds=12"),
            ("store_chaos/quarantine", _inject_no_faults, "quarantined=0"),
        ],
    )
    def test_broken_mechanism_fails_its_gate(
        self, runner, monkeypatch, gate, breakage, measured
    ):
        breakage(monkeypatch)
        report = runner.run(gate.split("/")[0])
        result = {r.gate: r for r in report.gates}[f"differential/{gate}"]
        assert not result.ok, report.render()
        assert measured in result.measured


class TestScratchDirectories:
    def test_runner_without_workdir_leaves_nothing_behind(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        runner = DifferentialRunner(seed=SEED, time_scale=SCALE)
        for pairing in ON_DISK_PAIRINGS:
            assert runner.run(pairing).ok
        assert os.listdir(tmp_path) == []

    def test_callers_workdir_is_kept(self, tmp_path):
        runner = DifferentialRunner(
            seed=SEED, time_scale=SCALE, workdir=str(tmp_path)
        )
        assert runner.run("resume").ok
        assert os.listdir(tmp_path)


class TestCodecPairing:
    def test_every_codec_agrees_exactly(self, runner):
        report = runner.run("codec_scalar_vs_vectorized")
        assert report.ok, report.render()
        assert sorted(gate.gate for gate in report.gates) == sorted(
            f"differential/codec/{name}" for name in list_codecs()
        )

    def test_a_dropped_run_bit_fails_the_gate(self, runner, monkeypatch):
        # The adjacent-run rows reach the batched side through the run
        # kernel; a kernel that loses one bit of one run must be caught.
        real = repro.codecs.run_masks

        def dropping(starts, lengths, limbs):
            flips = real(starts, lengths, limbs)
            limb = int(np.flatnonzero(flips[0])[0])
            flips[0, limb] &= flips[0, limb] - np.uint64(1)
            return flips

        monkeypatch.setattr(repro.codecs, "run_masks", dropping)
        report = runner.run("codec_scalar_vs_vectorized")
        assert not report.ok
        gates = {gate.gate: gate for gate in report.gates}
        for name in ("parity", "secded"):
            gate = gates[f"differential/codec/{name}"]
            assert not gate.ok
            assert int(gate.measured.split()[0]) > 0, gate.measured
