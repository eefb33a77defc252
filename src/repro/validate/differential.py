"""Differential testing: paired configurations that must agree.

The engine, telemetry, and resilience layers each promise some flavour
of "this knob does not change the physics":

``executor``
    ``SerialExecutor`` vs ``ParallelExecutor(4)`` -- byte-identical
    campaigns (the engine's headline guarantee).
``telemetry``
    Telemetry off vs on -- byte-identical campaigns (observation is
    inert).
``resume``
    An uninterrupted ``ResilientCampaign`` vs one crashed after two
    committed units and resumed from its store -- byte-identical
    ``campaign.json``.
``broker``
    A plain serial campaign vs the same spec planned, submitted to a
    store-backed :class:`~repro.scheduler.Broker`, leased out in small
    batches to a supervised pool, and assembled from the committed
    payloads -- byte-identical (scheduling decides *when and where*
    units run, never what they compute).
``lease_resume``
    A broker that completes everything vs one that commits half the
    units and is abandoned mid-lease, with a *second* broker on the
    same shared directory adopting the commits and taking over the
    expired leases -- byte-identical assembled campaigns (the
    dead-worker pickup path).
``store_chaos``
    A plain serial campaign vs *two* brokers draining the same plan
    through one :class:`~repro.scheduler.FaultyStore` that injects
    torn writes, post-commit corruption, a ghost duplicate-link win,
    a stale read and a transient errno -- byte-identical assembled
    campaigns, with every corrupted record recovered through
    ``quarantine/`` + re-commit (the store-hardening guarantee).
``injector``
    Vectorized vs scalar injection.  These deliberately consume their
    RNG streams differently (one draw layout per path), so the promise
    is *statistical*, not byte: both sample the same calibrated
    distributions, checked with Poisson same-distribution gates on
    per-session upset and failure counts.
``codec_scalar_vs_vectorized``
    For every codec in the :mod:`repro.codecs` registry: the scalar
    per-word ``classify`` vs the batched numpy path, over a mixed
    population of error weights including adjacent runs.  The batched
    side builds its adjacent runs with the explorer's ``run_masks``
    kernel, the scalar side with python ints, so the pairing checks
    the kernel too.  Unlike the injector pairing this promise *is*
    exact -- both paths decode the same corrupted codewords, so status
    codes and returned data must match word-for-word.

:class:`DifferentialRunner` flies each pairing from one seed and diffs
the results.  Byte pairings that disagree are decoded and diffed
field-by-field (:func:`diff_encoded`), so the report names the exact
JSON paths that drifted instead of "bytes differ".

This module is also the shared home of :func:`canonical_campaign_json`,
the canonical serialized form that the engine/telemetry/chaos test
suites previously each re-implemented inline.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from ..engine import ExecutionContext, ParallelExecutor, SerialExecutor
from ..errors import ValidationError
from ..harness.campaign import Campaign, CampaignResult
from ..io.json_store import (
    campaign_dict_from_entries,
    campaign_to_dict,
    unit_payload,
)
from ..io.results_dir import ResultsDirectory
from ..resilient import (
    ChaosSpec,
    ResilientCampaign,
    SimulatedCrash,
    SupervisedExecutor,
    SupervisionPolicy,
)
from ..telemetry import Telemetry
from .gates import GateResult, poisson_pair_gate

#: Pairing names, in report order.
PAIRINGS = (
    "executor",
    "telemetry",
    "injector",
    "codec_scalar_vs_vectorized",
    "resume",
    "broker",
    "lease_resume",
    "store_chaos",
    "tech_anchor",
)

#: Pairings that keep runs or stores on disk (see ``workdir``).
ON_DISK_PAIRINGS = ("resume", "broker", "lease_resume", "store_chaos")

#: Maximum leaf diffs a report keeps per pairing (enough to localize a
#: divergence without dumping two whole campaigns).
MAX_FIELD_DIFFS = 10


def canonical_campaign_json(campaign: CampaignResult) -> str:
    """The canonical byte form of a campaign: sorted-key JSON.

    Every byte-identity promise in the repo (serial == parallel,
    telemetry inert, resumed == uninterrupted) is stated over this
    serialization -- it captures every upset, failure, EDAC record and
    run outcome.
    """
    return json.dumps(campaign_to_dict(campaign), sort_keys=True)


@dataclass(frozen=True)
class FieldDiff:
    """One leaf where two paired results disagree."""

    path: str
    a: str
    b: str

    def render(self) -> str:
        return f"  {self.path}: {self.a} != {self.b}"


def diff_encoded(a: object, b: object, path: str = "$") -> List[FieldDiff]:
    """Field-by-field diff of two JSON-able trees (depth-first).

    Returns at most :data:`MAX_FIELD_DIFFS` leaf differences; a type or
    shape mismatch is reported at the node where it occurs.
    """
    diffs: List[FieldDiff] = []
    _walk_diff(a, b, path, diffs)
    return diffs


def _walk_diff(a, b, path, diffs: List[FieldDiff]) -> None:
    if len(diffs) >= MAX_FIELD_DIFFS:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                diffs.append(FieldDiff(f"{path}.{key}", "<absent>", _short(b[key])))
            elif key not in b:
                diffs.append(FieldDiff(f"{path}.{key}", _short(a[key]), "<absent>"))
            else:
                _walk_diff(a[key], b[key], f"{path}.{key}", diffs)
            if len(diffs) >= MAX_FIELD_DIFFS:
                return
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(
                FieldDiff(path, f"list[{len(a)}]", f"list[{len(b)}]")
            )
            return
        for index, (x, y) in enumerate(zip(a, b)):
            _walk_diff(x, y, f"{path}[{index}]", diffs)
            if len(diffs) >= MAX_FIELD_DIFFS:
                return
        return
    if a != b:
        diffs.append(FieldDiff(path, _short(a), _short(b)))


def _short(value: object) -> str:
    text = json.dumps(value, sort_keys=True) if not isinstance(value, str) else value
    return text if len(text) <= 48 else text[:45] + "..."


@dataclass
class DiffReport:
    """Verdict of one pairing: its gates plus any localized field diffs."""

    pairing: str
    gates: List[GateResult] = field(default_factory=list)
    field_diffs: List[FieldDiff] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(g.ok for g in self.gates)

    def render(self) -> str:
        lines = [g.render() for g in self.gates]
        lines.extend(d.render() for d in self.field_diffs)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "pairing": self.pairing,
            "ok": self.ok,
            "gates": [g.to_dict() for g in self.gates],
            "field_diffs": [
                {"path": d.path, "a": d.a, "b": d.b} for d in self.field_diffs
            ],
        }


class DifferentialRunner:
    """Flies the paired configurations and diffs their results.

    Parameters
    ----------
    seed / time_scale:
        The single configuration every pairing flies (both sides of a
        pair always share them).
    workdir:
        Where the on-disk pairings (``resume`` and the broker ones)
        keep their runs and stores, one fresh subdirectory per flight,
        left in place for inspection.  When omitted, each flight gets a
        temporary directory that is removed when the pairing ends.
    """

    def __init__(
        self,
        seed: int = 2023,
        time_scale: float = 0.01,
        workdir: Optional[str] = None,
    ) -> None:
        if time_scale <= 0:
            raise ValidationError("time_scale must be positive")
        self.seed = int(seed)
        self.time_scale = float(time_scale)
        self._workdir = workdir
        self._pairings: Dict[str, Callable[[], DiffReport]] = {
            "executor": self._pair_executor,
            "telemetry": self._pair_telemetry,
            "injector": self._pair_injector,
            "codec_scalar_vs_vectorized": self._pair_codecs,
            "resume": self._pair_resume,
            "broker": self._pair_broker,
            "lease_resume": self._pair_lease_resume,
            "store_chaos": self._pair_store_chaos,
            "tech_anchor": self._pair_tech_anchor,
        }

    def pairings(self) -> List[str]:
        """Pairing names, in report order."""
        return [name for name in PAIRINGS if name in self._pairings]

    def run(self, pairing: str) -> DiffReport:
        """Fly one pairing and diff it."""
        if pairing not in self._pairings:
            raise ValidationError(
                f"unknown pairing {pairing!r}; choose from {self.pairings()}"
            )
        fly = self._pairings[pairing]
        if pairing not in ON_DISK_PAIRINGS:
            return fly()
        with self._scratch(f"repro-diff-{pairing}-") as workdir:
            return fly(workdir)

    # -- pairing implementations -------------------------------------------------

    @contextmanager
    def _scratch(self, prefix: str) -> Iterator[str]:
        """A fresh directory for one pairing's on-disk state."""
        if self._workdir is not None:
            yield tempfile.mkdtemp(prefix=prefix, dir=self._workdir)
            return
        with tempfile.TemporaryDirectory(prefix=prefix) as path:
            yield path

    def _fly(self, executor=None, telemetry=None) -> CampaignResult:
        context = ExecutionContext(
            seed=self.seed, time_scale=self.time_scale, telemetry=telemetry
        )
        return Campaign(context=context, executor=executor).run()

    def _byte_report(
        self, pairing, label_a, a, label_b, b, bytes_b: Optional[str] = None
    ) -> DiffReport:
        bytes_a = canonical_campaign_json(a)
        if bytes_b is None:
            bytes_b = canonical_campaign_json(b)
        ok = bytes_a == bytes_b
        report = DiffReport(
            pairing=pairing,
            gates=[
                GateResult(
                    gate=f"differential/{pairing}",
                    ok=ok,
                    measured=f"{len(bytes_a)} vs {len(bytes_b)} bytes",
                    expected="byte-identical campaigns",
                    detail=f"{label_a} vs {label_b}, canonical JSON",
                )
            ],
        )
        if not ok:
            report.field_diffs = diff_encoded(
                json.loads(bytes_a), json.loads(bytes_b)
            )
        return report

    def _pair_executor(self) -> DiffReport:
        serial = self._fly(executor=SerialExecutor())
        parallel = self._fly(executor=ParallelExecutor(4))
        return self._byte_report(
            "executor", "serial", serial, "parallel(4)", parallel
        )

    def _pair_tech_anchor(self) -> DiffReport:
        # The 28 nm anchor node must be invisible: a campaign pinned to
        # "xgene2-28" is the same physics as one with no node at all,
        # down to the config hash (so submission ids and checkpoints
        # written before the node axis existed stay valid).
        context = ExecutionContext(seed=self.seed, time_scale=self.time_scale)
        plain = Campaign(context=context)
        anchored = Campaign(context=context, tech_node="xgene2-28")
        hash_a, hash_b = plain.config_hash(), anchored.config_hash()
        report = self._byte_report(
            "tech_anchor",
            "no node",
            plain.run(),
            'tech_node="xgene2-28"',
            anchored.run(),
        )
        report.gates.append(
            GateResult(
                gate="differential/tech_anchor/config_hash",
                ok=hash_a == hash_b,
                measured=f"{hash_a[:12]} vs {hash_b[:12]}",
                expected="identical config hashes",
                detail="anchor node must not move the campaign identity",
            )
        )
        return report

    def _pair_telemetry(self) -> DiffReport:
        silent = self._fly()
        observed = self._fly(telemetry=Telemetry())
        return self._byte_report(
            "telemetry", "telemetry off", silent, "telemetry on", observed
        )

    def _pair_injector(self) -> DiffReport:
        # The scalar and vectorized injectors consume their streams in
        # different draw layouts, so identical bytes are impossible by
        # design; the promise is that both sample the same calibrated
        # distributions.
        context = ExecutionContext(seed=self.seed, time_scale=self.time_scale)
        vectorized = Campaign(context=context, vectorized=True).run()
        scalar = Campaign(context=context, vectorized=False).run()
        report = DiffReport(pairing="injector")
        for label in vectorized.labels():
            a, b = vectorized.session(label), scalar.session(label)
            report.gates.append(
                poisson_pair_gate(
                    f"differential/injector/{label}/upsets",
                    a.upset_count,
                    b.upset_count,
                )
            )
            report.gates.append(
                poisson_pair_gate(
                    f"differential/injector/{label}/failures",
                    a.failure_count,
                    b.failure_count,
                )
            )
        return report

    def _pair_codecs(self) -> DiffReport:
        # Imported lazily: repro.codecs.sweep itself imports the gates
        # from this package, so a module-level import would be cyclic.
        import numpy as np

        from ..codecs import (
            STATUS_OF_CODE,
            get_codec,
            list_codecs,
            pack_masks,
            run_masks,
        )
        from ..rng import RngStreams

        samples = 256
        report = DiffReport(pairing="codec_scalar_vs_vectorized")
        for name in list_codecs():
            bundle = get_codec(name)
            codec, vectorized = bundle.codec, bundle.vectorized
            rng = RngStreams(self.seed).child("codec-diff", codec=name)
            if codec.data_bits >= 64:
                high = rng.integers(0, 1 << 32, size=samples, dtype=np.uint64)
                low = rng.integers(0, 1 << 32, size=samples, dtype=np.uint64)
                data = (high << np.uint64(32)) | low
            else:
                data = rng.integers(
                    0, 1 << codec.data_bits, size=samples, dtype=np.uint64
                )
            masks = []
            starts, lengths = [], []
            for i in range(samples):
                if i % 2 == 0:
                    # Scattered flips of weight 0..4 (covers clean,
                    # correct, detect, and aliasing regimes).
                    weight = i % 5
                    positions = rng.choice(
                        codec.word_bits, size=weight, replace=False
                    )
                    mask = 0
                    for pos in positions:
                        mask |= 1 << int(pos)
                else:
                    # Adjacent runs, the MBU-shaped patterns.
                    length = (i % 4) + 1
                    start = int(rng.integers(0, codec.word_bits - length + 1))
                    mask = ((1 << length) - 1) << start
                    starts.append(start)
                    lengths.append(length)
                masks.append(mask)
            # The adjacent runs reach the batched side through the
            # explorer's kernel, so the scalar oracle checks it too.
            flips = np.empty((samples, vectorized.limbs), dtype=np.uint64)
            flips[0::2] = pack_masks(masks[0::2], vectorized.limbs)
            flips[1::2] = run_masks(starts, lengths, vectorized.limbs)
            status_vec, data_vec = vectorized.classify_batch(data, flips)
            mismatches = 0
            for i in range(samples):
                scalar = codec.classify(int(data[i]), masks[i])
                if (
                    scalar.status is not STATUS_OF_CODE[int(status_vec[i])]
                    or scalar.data != int(data_vec[i])
                ):
                    mismatches += 1
            report.gates.append(
                GateResult(
                    gate=f"differential/codec/{name}",
                    ok=mismatches == 0,
                    measured=f"{mismatches} mismatching words",
                    expected=f"0 of {samples}",
                    detail="scalar classify vs batched classify "
                    "(status + data, exact)",
                )
            )
        return report

    def _pair_resume(self, workdir: str) -> DiffReport:
        policy = SupervisionPolicy(backoff_s=0.0)

        def flight(name, chaos=None, resume=False):
            results = ResultsDirectory(os.path.join(workdir, name))
            runner = ResilientCampaign(
                context=ExecutionContext(
                    seed=self.seed, time_scale=self.time_scale
                ),
                policy=policy,
                chaos=chaos,
            )
            report = runner.run(results, resume=resume)
            report.persist(results)
            path = os.path.join(workdir, name, "campaign.json")
            with open(path, "rb") as handle:
                return handle.read()

        fresh_bytes = flight("fresh")
        try:
            flight("resumed", chaos=ChaosSpec(crash_after_units=2))
        except SimulatedCrash:
            pass  # the deliberate mid-campaign crash
        resumed_bytes = flight("resumed", resume=True)

        ok = fresh_bytes == resumed_bytes
        report = DiffReport(
            pairing="resume",
            gates=[
                GateResult(
                    gate="differential/resume",
                    ok=ok,
                    measured=f"{len(fresh_bytes)} vs {len(resumed_bytes)} bytes",
                    expected="byte-identical campaign.json",
                    detail="uninterrupted vs crash-after-2-units + resume",
                )
            ],
        )
        if not ok:
            report.field_diffs = diff_encoded(
                json.loads(fresh_bytes), json.loads(resumed_bytes)
            )
        return report

    # -- scheduler pairings ------------------------------------------------------

    def _campaign_plan(self):
        from ..scheduler import CampaignSpec, plan_campaign

        return plan_campaign(
            CampaignSpec(seed=self.seed, time_scale=self.time_scale)
        )

    def _drain_in_batches(self, broker, worker: str, batch: int = 2) -> None:
        # One warm executor across every lease batch: the pairing then
        # proves pool *reuse* (not just pooled execution) preserves
        # byte-identity with the serial reference.
        executor = SupervisedExecutor(
            policy=SupervisionPolicy(backoff_s=0.0), workers=2
        )
        try:
            while True:
                leases = broker.lease(worker, limit=batch)
                if not leases:
                    break
                broker.settle(leases, executor, unit_payload)
        finally:
            executor.close()

    @staticmethod
    def _assembled_json(broker, plan) -> str:
        entries = broker.entries_for(plan.submission_id)
        return json.dumps(
            campaign_dict_from_entries(entries), sort_keys=True
        )

    def _pair_broker(self, workdir: str) -> DiffReport:
        from ..scheduler import Broker, DirectoryStore

        serial = self._fly(executor=SerialExecutor())
        store = DirectoryStore(os.path.join(workdir, "store"))
        plan = self._campaign_plan()
        broker = Broker(store=store, broker_id="diff-broker")
        broker.submit(plan)
        # Two-unit lease batches: the campaign crosses the broker in
        # shards, not one map call, and still must not change a byte.
        self._drain_in_batches(broker, "diff-broker", batch=2)
        return self._byte_report(
            "broker",
            "serial Campaign.run",
            serial,
            "broker-sharded (batches of 2, supervised pool)",
            None,
            bytes_b=self._assembled_json(broker, plan),
        )

    def _pair_lease_resume(self, base: str) -> DiffReport:
        from ..scheduler import Broker, DirectoryStore

        clock = {"now": 1_000_000.0}

        def now() -> float:
            return clock["now"]

        # Fresh flight: one broker on its own store completes all units.
        plan_fresh = self._campaign_plan()
        fresh_broker = Broker(
            store=DirectoryStore(os.path.join(base, "fresh"), clock=now),
            broker_id="fresh",
            clock=now,
        )
        fresh_broker.submit(plan_fresh)
        self._drain_in_batches(fresh_broker, "fresh")
        fresh_json = self._assembled_json(fresh_broker, plan_fresh)

        # Shared store: broker A commits the first two units, leases the
        # next two, then is abandoned with those leases still published.
        shared = DirectoryStore(os.path.join(base, "shared"), clock=now)
        plan_a = self._campaign_plan()
        broker_a = Broker(
            store=shared, broker_id="dead", clock=now, lease_ttl_s=30.0
        )
        broker_a.submit(plan_a)
        executor_a = SupervisedExecutor(
            policy=SupervisionPolicy(backoff_s=0.0), workers=2
        )
        try:
            broker_a.settle(
                broker_a.lease("dead", limit=2), executor_a, unit_payload
            )
        finally:
            executor_a.close()
        abandoned = broker_a.lease("dead", limit=2)

        # Broker B on the same store: adopts A's commits at submit time,
        # must NOT lease past A's live leases, and takes them over only
        # once they expire.
        plan_b = self._campaign_plan()
        broker_b = Broker(
            store=shared, broker_id="survivor", clock=now, lease_ttl_s=30.0
        )
        broker_b.submit(plan_b)
        adopted = sum(
            1
            for unit in plan_b.units
            if broker_b.unit_status(unit.unit_id) == "done"
        )
        blocked = broker_b.lease("survivor", limit=4)
        for lease in blocked:  # should be none -- A's leases are live
            broker_b.fail(lease, "leased past a live foreign lease")
        clock["now"] += 31.0  # A's leases expire
        self._drain_in_batches(broker_b, "survivor")
        resumed_json = self._assembled_json(broker_b, plan_b)

        ok_bytes = fresh_json == resumed_json
        ok_pickup = (
            len(abandoned) == 2 and adopted == 2 and not blocked
        )
        report = DiffReport(
            pairing="lease_resume",
            gates=[
                GateResult(
                    gate="differential/lease_resume",
                    ok=ok_bytes,
                    measured=(
                        f"{len(fresh_json)} vs {len(resumed_json)} bytes"
                    ),
                    expected="byte-identical assembled campaigns",
                    detail="single broker vs abandoned-lease takeover",
                ),
                GateResult(
                    gate="differential/lease_resume/pickup",
                    ok=ok_pickup,
                    measured=(
                        f"adopted={adopted}, abandoned={len(abandoned)}, "
                        f"leased-past-live={len(blocked)}"
                    ),
                    expected="adopted=2, abandoned=2, leased-past-live=0",
                    detail="commit adoption + lease-expiry takeover",
                ),
            ],
        )
        if not ok_bytes:
            report.field_diffs = diff_encoded(
                json.loads(fresh_json), json.loads(resumed_json)
            )
        return report

    def _pair_store_chaos(self, workdir: str) -> DiffReport:
        from ..scheduler import Broker, FaultyStore, StoreChaosSpec

        serial = self._fly(executor=SerialExecutor())
        # One fault of every kind, placed early so the very first
        # commit survives a torn write, a transient EIO on its link,
        # and post-commit bit rot (driving the broker's full
        # quarantine + re-commit loop), plus a ghost link win and a
        # stale read later in the drain.
        chaos = StoreChaosSpec(
            torn_write=(0,),
            transient_errno=(1,),
            corrupt_commit=(2,),
            duplicate_link=(6,),
            stale_read=(12,),
        )
        store = FaultyStore(
            os.path.join(workdir, "store"), chaos, sleep=lambda _s: None
        )
        plan_a, plan_b = self._campaign_plan(), self._campaign_plan()
        broker_a = Broker(store=store, broker_id="chaos-a")
        broker_b = Broker(store=store, broker_id="chaos-b")
        broker_a.submit(plan_a)
        broker_b.submit(plan_b)
        executor = SupervisedExecutor(
            policy=SupervisionPolicy(backoff_s=0.0), workers=2
        )
        max_rounds, rounds = 12, 0
        try:
            while rounds < max_rounds and not (
                broker_a.is_complete(plan_a.submission_id)
                and broker_b.is_complete(plan_b.submission_id)
            ):
                rounds += 1
                for broker, worker in (
                    (broker_a, "chaos-a"),
                    (broker_b, "chaos-b"),
                ):
                    leases = broker.lease(worker, limit=2)
                    if leases:
                        broker.settle(leases, executor, unit_payload)
        finally:
            executor.close()
        assembled_a = self._assembled_json(broker_a, plan_a)
        assembled_b = self._assembled_json(broker_b, plan_b)
        report = self._byte_report(
            "store_chaos",
            "serial Campaign.run",
            serial,
            "2 brokers over a FaultyStore",
            None,
            bytes_b=assembled_a,
        )
        agree = assembled_a == assembled_b
        report.gates.append(
            GateResult(
                gate="differential/store_chaos/convergence",
                ok=rounds < max_rounds and agree,
                measured=f"rounds={rounds}, brokers agree={agree}",
                expected=(
                    f"both brokers complete in < {max_rounds} rounds "
                    f"and assemble the same bytes"
                ),
                detail="alternating 2-unit batches over one faulted store",
            )
        )
        health = store.health()
        reasons = store.quarantined_units()
        ok_quarantine = (
            health["quarantined"] >= 2
            and len(reasons) == health["quarantined"]
            and all(r.get("reason") for r in reasons)
        )
        report.gates.append(
            GateResult(
                gate="differential/store_chaos/quarantine",
                ok=ok_quarantine,
                measured=(
                    f"quarantined={health['quarantined']}, "
                    f"reason files={len(reasons)}, "
                    f"injected={sum(store.injected.values())}"
                ),
                expected=">= 2 quarantined records, each with a reason",
                detail="torn/corrupt records recovered via quarantine "
                "+ re-commit",
            )
        )
        return report
