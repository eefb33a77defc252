"""Shared fixtures for the benchmark harness.

Every table/figure bench regenerates its artifact through the same
experiment driver that ``repro-experiment`` runs, over one full-length
Table 2 campaign (flown once per pytest session, ~10 s), and times that
regeneration.  Numeric conformance to the paper goes through the golden
oracle registry (``repro.validate``), whose extractors read the same
drivers' series, at the tolerances the golden files declare; the
remaining asserts are paper-shape invariants on the driver's series --
who wins, which direction trends point, rough factors.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_experiment
from repro.experiments.config import shared_campaign
from repro.validate import default_registry
from repro.validate.conformance import MEASUREMENTS

#: Root seed of the benchmark campaign.  Fixed only so the timing
#: numbers are comparable run to run; no assertion depends on this
#: particular draw sequence -- every paper comparison goes through the
#: oracle registry's gates, whose Poisson/relative tolerances any seed
#: is expected to pass at full session length.
BENCH_SEED = 2025

#: Full-length sessions: Table 2's durations as flown.
BENCH_TIME_SCALE = 1.0


@pytest.fixture(scope="session")
def campaign():
    """The four Table 2 sessions at full length (flown once).

    Sourced through :func:`shared_campaign`, the cache every experiment
    driver reads, so the drivers and the conformance extractors reuse
    this flown campaign instead of re-flying it per artifact.
    """
    return shared_campaign(BENCH_SEED, BENCH_TIME_SCALE)


@pytest.fixture(scope="session")
def experiment(campaign):
    """``experiment("fig6")`` runs that artifact's driver on the bench
    campaign -- what ``repro-experiment fig6`` prints at this seed and
    scale.  The campaign is flown at fixture setup, so a bench times
    the regeneration, not the flight."""

    def run(artifact: str):
        return run_experiment(
            artifact, seed=BENCH_SEED, time_scale=BENCH_TIME_SCALE
        )

    return run


@pytest.fixture(scope="session")
def registry():
    """The golden oracle registry (expected paper values + tolerances)."""
    return default_registry()


@pytest.fixture(scope="session")
def conformance(campaign, registry):
    """Gate one artifact's driver output against its golden file.

    ``conformance("fig6")`` measures the artifact through the same
    extractor the ``validate`` CLI uses (which reads the driver's
    series over the cached campaign) and asserts every registry gate
    passes, rendering the failed gates -- golden value, measured
    value, declared tolerance -- on mismatch.
    """

    def check(artifact: str) -> None:
        measured, scale = MEASUREMENTS[artifact](
            BENCH_SEED, BENCH_TIME_SCALE
        )
        failed = [
            gate
            for gate in registry.check(artifact, measured, scale=scale)
            if not gate.ok
        ]
        assert not failed, "registry gates failed:\n" + "\n".join(
            gate.render() for gate in failed
        )

    return check
