"""Bench: broker scheduling overhead.

The broker is pure bookkeeping -- every microsecond it spends is
subtracted from beam time -- so these benches time the scheduling loop
itself on trivial work units and hold the per-unit overhead to a bound
generous enough for CI boxes but far below a single session flight.
The absolute trajectory across PRs is tracked by ``benchmarks/record.py``
into ``BENCH_scheduler.json``.
"""

import time

from repro.engine import SerialExecutor
from repro.engine.executor import WorkUnit
from repro.scheduler import Broker, CampaignPlan, PlannedUnit

#: Units per scheduling cycle; enough that per-unit cost dominates.
UNITS = 256

#: Ceiling on broker bookkeeping per unit.  A session flight is tens of
#: milliseconds even at time_scale 0.01 -- scheduling must stay noise.
MAX_OVERHEAD_S_PER_UNIT = 0.002


def _noop(index: int) -> int:
    return index


def _plan(n: int = UNITS) -> CampaignPlan:
    prefix = "benchbenchbe"
    units = tuple(
        PlannedUnit(
            unit_id=f"{prefix}/u{i}",
            label=f"u{i}",
            seq=i,
            unit=WorkUnit(key=f"u{i}", fn=_noop, args=(i,)),
        )
        for i in range(n)
    )
    return CampaignPlan(config_hash=prefix * 2, units=units)


def test_bench_submit_lease_complete(benchmark):
    """One full scheduling cycle: submit, lease all, complete all."""

    def cycle():
        broker = Broker()
        broker.submit(_plan())
        done = 0
        while True:
            leases = broker.lease("bench", limit=32)
            if not leases:
                break
            for lease in leases:
                broker.complete(lease)
                done += 1
        return done

    assert benchmark(cycle) == UNITS
    per_unit = benchmark.stats.stats.mean / UNITS
    print(f"\nbroker cycle: {per_unit * 1e6:.1f} us/unit")
    assert per_unit < MAX_OVERHEAD_S_PER_UNIT


def test_bench_drain_overhead(benchmark):
    """Broker.drain vs calling the unit functions directly."""

    def drained():
        broker = Broker()
        plan = _plan()
        broker.submit(plan)
        return broker.drain(SerialExecutor())

    results = benchmark(drained)
    assert len(results) == UNITS

    started = time.perf_counter()
    raw = [_noop(i) for i in range(UNITS)]
    direct_s = time.perf_counter() - started
    assert len(raw) == UNITS

    overhead = (benchmark.stats.stats.mean - direct_s) / UNITS
    print(
        f"\ndrain: {benchmark.stats.stats.mean * 1e3:.2f} ms, "
        f"direct: {direct_s * 1e3:.2f} ms, "
        f"overhead {overhead * 1e6:.1f} us/unit"
    )
    assert overhead < MAX_OVERHEAD_S_PER_UNIT


def test_bench_hardened_commit_path(benchmark, tmp_path):
    """Fenced, checksummed, read-back-verified commits per second.

    The hardening added sha256 over the payload, a self-describing
    header, a fencing check, and a verify-after-write read-back on
    every commit.  All of it must stay far below a session flight.
    """
    from repro.scheduler import DirectoryStore

    n = 64
    rounds = {"i": 0}
    payload = {"key": "session1", "value": [0.25] * 64}

    def commit_batch():
        rounds["i"] += 1
        store = DirectoryStore(str(tmp_path / f"store-{rounds['i']}"))
        epoch = store.register_epoch("bench")
        done = 0
        for i in range(n):
            if store.try_commit(
                f"benchbenchbe/u{i}", payload, epoch=epoch, owner="bench"
            ):
                done += 1
        return done

    assert benchmark(commit_batch) == n
    per_commit = benchmark.stats.stats.mean / n
    print(f"\nhardened commit: {per_commit * 1e6:.1f} us/commit")
    # fsync-bound, so generous: still ~100x under a scaled session.
    assert per_commit < 0.01
