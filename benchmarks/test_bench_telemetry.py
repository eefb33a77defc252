"""Bench: telemetry instrumentation stays out of the hot path's way.

Metering the injector (pre-bound counter handles bumped per
exposure/event/upset) must cost < 5% on the vectorized hot path.  Each
round times both variants back to back and yields one metered/plain
ratio; the side that runs first alternates from round to round, and the
bound applies to the median ratio.  A preemption or a frequency step
then spoils one round's ratio, not the estimate, and running first or
second favours neither side, so a noisy CI box cannot fake an overhead
regression in either direction.
"""

import statistics
import time

import numpy as np

from repro.injection.injector import BeamInjector
from repro.soc.xgene2 import XGene2
from repro.telemetry import MetricsRegistry

#: Beam-time per exposure measurement (simulated hours).
EXPOSURE_HOURS = 40.0

#: Timing rounds, one metered/plain ratio each; the median is asserted.
ROUNDS = 31


def _expose_seconds(injector: BeamInjector) -> tuple:
    rng = np.random.default_rng(2023)
    started = time.perf_counter()
    summary = injector.expose(EXPOSURE_HOURS * 3600.0, rng)
    return time.perf_counter() - started, summary.total_upsets


def test_bench_telemetry_overhead(benchmark):
    def expose_metered():
        injector = BeamInjector(
            XGene2(), vectorized=True, metrics=MetricsRegistry()
        )
        return injector.expose(
            EXPOSURE_HOURS * 3600.0, np.random.default_rng(2023)
        )

    summary = benchmark(expose_metered)
    assert summary.total_upsets > 1600  # ~1.01/min over 40 h

    # Fresh injectors for the comparison: the benchmark rounds above
    # grew one chip's EDAC log, and that allocation pressure must not
    # bias one side.  Warm both paths, then time each round's pair in
    # alternating order.
    metrics = MetricsRegistry()
    plain = BeamInjector(XGene2(), vectorized=True)
    metered = BeamInjector(XGene2(), vectorized=True, metrics=metrics)
    plain.expose(3600.0, np.random.default_rng(1))
    metered.expose(3600.0, np.random.default_rng(1))
    ratios = []
    plain_events = metered_events = 0
    for round_index in range(ROUNDS):
        if round_index % 2:
            metered_s, metered_events = _expose_seconds(metered)
            plain_s, plain_events = _expose_seconds(plain)
        else:
            plain_s, plain_events = _expose_seconds(plain)
            metered_s, metered_events = _expose_seconds(metered)
        ratios.append(metered_s / plain_s)

    overhead = statistics.median(ratios) - 1.0
    print(
        f"\nplain:   {plain_events} events, metered: {metered_events} events"
        f"\nper-round overhead: {(min(ratios) - 1) * 100:+.2f}% to "
        f"{(max(ratios) - 1) * 100:+.2f}%"
        f"\nmedian overhead: {overhead * 100:+.2f}%"
    )
    # Same seed, same draws: metering must not change the physics.
    assert metered_events == plain_events
    assert overhead < 0.05

    # And the meters actually counted: every exposure/event landed.
    values = metrics.counter_values()
    assert values["injector.exposures"] == ROUNDS + 1  # rounds + warm-up
    assert any(key.startswith("injector.events") for key in values)
