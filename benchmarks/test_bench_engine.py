"""Bench: the execution engine's throughput claims.

Three claims ride on the physics loop and the ``repro.engine`` layer:

* the vectorized injector hot path is >= 3x faster than the scalar
  reference path -- asserted on the median of alternating rounds, so
  one preempted exposure, or always running first, cannot decide it;
* a full-length session 1 flies >= 1.5x faster with the session
  look-ahead (quiet runs flown from one array draw) than forced through
  per-run draws -- the same alternating-rounds median;
* parallel campaign execution is recorded serial-vs-parallel in
  events/sec but NOT asserted to win: CI boxes (and this sandbox) may
  expose a single core, where process-pool overhead necessarily loses.
  Correctness (bit-identity) is asserted in tests/engine/ instead.
"""

import statistics
import time

import numpy as np
import pytest

from repro import Campaign, ParallelExecutor, SerialExecutor
from repro.harness.session import TABLE2_SESSION_PLANS, BeamSession
from repro.injection.injector import BeamInjector
from repro.rng import RngStreams
from repro.soc.xgene2 import XGene2

#: Beam-time per injector exposure measurement (simulated hours).
EXPOSURE_HOURS = 20.0

#: Injector timing rounds, one speedup each; the median is asserted.
ROUNDS = 11

#: Session-throughput timing rounds, one speedup each; the median is
#: asserted.
SESSION_ROUNDS = 5

#: Campaign scale for the executor comparison.
CAMPAIGN_SCALE = 0.05


def _expose_events_per_sec(vectorized: bool) -> tuple:
    # A fresh chip per exposure: a chip reused across rounds grows its
    # EDAC log, and that allocation pressure must not bias one side.
    injector = BeamInjector(XGene2(), vectorized=vectorized)
    rng = np.random.default_rng(2023)
    started = time.perf_counter()
    summary = injector.expose(EXPOSURE_HOURS * 3600.0, rng)
    elapsed = time.perf_counter() - started
    return summary.total_upsets / elapsed, summary.total_upsets, elapsed


def test_bench_vectorized_injector(benchmark):
    injector = BeamInjector(XGene2(), vectorized=True)

    def expose():
        return injector.expose(
            EXPOSURE_HOURS * 3600.0, np.random.default_rng(2023)
        )

    summary = benchmark(expose)
    assert summary.total_upsets > 800  # ~1.01/min over 20 h

    speedups = []
    for round_index in range(ROUNDS):
        if round_index % 2:
            sca_rate, sca_events, sca_s = _expose_events_per_sec(False)
            vec_rate, vec_events, vec_s = _expose_events_per_sec(True)
        else:
            vec_rate, vec_events, vec_s = _expose_events_per_sec(True)
            sca_rate, sca_events, sca_s = _expose_events_per_sec(False)
        speedups.append(vec_rate / sca_rate)
    speedup = statistics.median(speedups)
    print(
        f"\nvectorized: {vec_events} events in {vec_s * 1e3:.1f} ms "
        f"({vec_rate:,.0f} events/s)"
        f"\nscalar:     {sca_events} events in {sca_s * 1e3:.1f} ms "
        f"({sca_rate:,.0f} events/s)"
        f"\nper-round speedup: {min(speedups):.1f}x to {max(speedups):.1f}x"
        f"\nmedian speedup:    {speedup:.1f}x"
    )
    # Both paths sample the same distributions.
    assert vec_events == pytest.approx(sca_events, rel=0.15)
    assert speedup >= 3.0


def _per_run(rng, means, index):
    return 0


def fly_session1_s(lookahead: bool) -> float:
    """Wall seconds to fly a full-length session 1 (~30k runs).

    Without *lookahead* the session's look-ahead finds no quiet run, so
    every run draws its own counts: the per-run path it replaced.
    """
    with pytest.MonkeyPatch.context() as patch:
        if not lookahead:
            patch.setattr(BeamSession, "_quiet_runs", staticmethod(_per_run))
        session = BeamSession(TABLE2_SESSION_PLANS[0], RngStreams(2023))
        started = time.perf_counter()
        session.run()
        return time.perf_counter() - started


def session_speedups(rounds: int) -> list:
    """Per-run over look-ahead wall time, one ratio per round."""
    speedups = []
    for round_index in range(rounds):
        if round_index % 2:
            per_run_s = fly_session1_s(False)
            ahead_s = fly_session1_s(True)
        else:
            ahead_s = fly_session1_s(True)
            per_run_s = fly_session1_s(False)
        speedups.append(per_run_s / ahead_s)
    return speedups


def test_bench_session_lookahead():
    speedups = session_speedups(SESSION_ROUNDS)
    speedup = statistics.median(speedups)
    print(
        f"\nsession1 look-ahead vs per-run: {min(speedups):.2f}x to "
        f"{max(speedups):.2f}x per round, median {speedup:.2f}x"
    )
    assert speedup >= 1.5


def test_bench_campaign_executors(benchmark):
    def fly_serial():
        return Campaign(
            seed=2023, time_scale=CAMPAIGN_SCALE, executor=SerialExecutor()
        ).run()

    result = benchmark(fly_serial)
    events = sum(
        s.upset_count + s.failure_count for s in result.sessions.values()
    )
    assert events > 0

    started = time.perf_counter()
    Campaign(
        seed=2023, time_scale=CAMPAIGN_SCALE, executor=SerialExecutor()
    ).run()
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel_result = Campaign(
        seed=2023, time_scale=CAMPAIGN_SCALE, executor=ParallelExecutor(4)
    ).run()
    parallel_s = time.perf_counter() - started

    print(
        f"\nserial:   {events / serial_s:,.0f} events/s ({serial_s:.2f} s)"
        f"\nparallel: {events / parallel_s:,.0f} events/s "
        f"({parallel_s:.2f} s, 4 workers)"
    )
    # Recorded, not asserted: a single-core box cannot win on wall
    # clock.  What must hold everywhere is the determinism guarantee.
    parallel_events = sum(
        s.upset_count + s.failure_count
        for s in parallel_result.sessions.values()
    )
    assert parallel_events == events
