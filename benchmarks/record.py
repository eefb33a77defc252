"""Append benchmark measurements to the committed BENCH_*.json files.

The benches under ``benchmarks/`` assert *bounds* in-test; this script
records the *numbers*, so the perf trajectory is tracked across PRs
instead of living only in transient CI logs::

    PYTHONPATH=src python benchmarks/record.py            # all suites
    PYTHONPATH=src python benchmarks/record.py scheduler  # one suite

Each suite appends one record -- timestamp, git revision, python
version, metric dict -- to ``BENCH_<suite>.json`` at the repo root:

.. code-block:: json

    {"schema": 1, "suite": "scheduler", "records": [
        {"recorded_unix": 0.0, "git": "abc123", "metrics": {...}}
    ]}

Metrics are medians over a few repetitions of the same measurements the
benches time, at deliberately small scales: the point is a comparable
number per PR, not a rigorous microbenchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(1, REPO_ROOT)  # for `benchmarks.*` imports

REPEATS = 5

#: Fresh interpreters the start-up suite launches.
STARTUP_LAUNCHES = 11


def _timed(fn: Callable[[], object]) -> float:
    """Median wall seconds of *fn* over REPEATS runs (1 warmup)."""
    fn()
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


# -- suites ------------------------------------------------------------------


def measure_engine() -> Dict[str, float]:
    import numpy as np

    from repro import Campaign
    from repro.injection.injector import BeamInjector
    from repro.soc.xgene2 import XGene2

    hours = 5.0

    def expose(vectorized: bool) -> Callable[[], object]:
        injector = BeamInjector(XGene2(), vectorized=vectorized)
        return lambda: injector.expose(
            hours * 3600.0, np.random.default_rng(2023)
        )

    vectorized_s = _timed(expose(True))
    scalar_s = _timed(expose(False))
    campaign_s = _timed(lambda: Campaign(seed=2023, time_scale=0.02).run())

    from repro.io.json_store import load_campaign, save_campaign

    # Decoding a full-length campaign.json: what analyze, export and
    # report pay before any analysis runs.
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "campaign.json")
        save_campaign(Campaign(seed=2023, time_scale=1.0).run(), path)
        load_full_s = _timed(lambda: load_campaign(path))

    from benchmarks.test_bench_engine import fly_session1_s, session_speedups

    session_ahead_s = statistics.median(
        fly_session1_s(True) for _ in range(3)
    )
    session_speedup = statistics.median(session_speedups(REPEATS))

    from benchmarks.test_bench_pool import BATCHES, fly_cold, fly_warm
    from benchmarks.test_bench_scheduler import UNITS, _encode, _plan
    from repro.resilient import SupervisedExecutor
    from repro.scheduler import Broker

    warm_s = _timed(fly_warm)
    cold_s = _timed(fly_cold)

    def drain_pooled() -> None:
        # One warm executor across the whole drain: what the service
        # loop and resilient runner actually pay per unit.
        executor = SupervisedExecutor(workers=2)
        try:
            broker = Broker()
            broker.submit(_plan())
            broker.drain(executor, _encode)
        finally:
            executor.close()

    drain_pool_s = _timed(drain_pooled)
    return {
        "injector_vectorized_s": vectorized_s,
        "injector_scalar_s": scalar_s,
        "injector_speedup_x": scalar_s / vectorized_s,
        "campaign_scale_0.02_s": campaign_s,
        "load_campaign_full_s": load_full_s,
        "session1_lookahead_s": session_ahead_s,
        "session1_lookahead_speedup_x": session_speedup,
        "pool_warm_batches_s": warm_s,
        "pool_cold_batches_s": cold_s,
        "pool_reuse_speedup_x": cold_s / warm_s,
        "pool_batches": float(BATCHES),
        "drain_pool_us_per_unit": drain_pool_s / UNITS * 1e6,
    }


def measure_scheduler() -> Dict[str, float]:
    from benchmarks.test_bench_scheduler import UNITS, _encode, _noop, _plan

    from repro.resilient import SupervisedExecutor
    from repro.scheduler import Broker

    def cycle() -> None:
        broker = Broker()
        broker.submit(_plan())
        while True:
            leases = broker.lease("record", limit=32)
            if not leases:
                return
            for lease in leases:
                broker.complete(lease)

    def drained() -> None:
        broker = Broker()
        broker.submit(_plan())
        broker.drain(SupervisedExecutor(), _encode)

    cycle_s = _timed(cycle)
    drain_s = _timed(drained)
    direct_s = _timed(lambda: [_noop(i) for i in range(UNITS)])
    return {
        "units": float(UNITS),
        "submit_lease_complete_us_per_unit": cycle_s / UNITS * 1e6,
        "drain_serial_us_per_unit": drain_s / UNITS * 1e6,
        "drain_overhead_us_per_unit": (drain_s - direct_s) / UNITS * 1e6,
    }


def measure_codecs() -> Dict[str, float]:
    from benchmarks.test_bench_codecs import (
        BATCH,
        LIMB_WIDTHS,
        RUNS,
        VECTORIZED,
        codec_batch,
        python_masks,
        run_batch,
        scalar_classify,
    )
    from repro.codecs import run_masks

    metrics: Dict[str, float] = {"batch_words": float(BATCH)}
    for name in VECTORIZED:
        entry, data, masks, flips = codec_batch(name)
        vectorized = entry.vectorized
        vectorized_s = _timed(lambda: vectorized.classify_batch(data, flips))
        scalar_s = _timed(lambda: scalar_classify(entry, data, masks))
        key = name.replace("-", "_")
        metrics[f"{key}_scalar_s"] = scalar_s
        metrics[f"{key}_vectorized_s"] = vectorized_s
        metrics[f"{key}_speedup_x"] = scalar_s / vectorized_s
    # Mask build: one RUNS batch per limb width, summed over widths.
    batches = [(run_batch(limbs), limbs) for limbs in LIMB_WIDTHS]
    kernel_s = _timed(
        lambda: [run_masks(*runs, limbs) for runs, limbs in batches]
    )
    python_s = _timed(
        lambda: [python_masks(*runs, limbs) for runs, limbs in batches]
    )
    metrics["mask_runs"] = float(RUNS * len(LIMB_WIDTHS))
    metrics["run_masks_s"] = kernel_s
    metrics["python_masks_s"] = python_s
    metrics["run_masks_speedup_x"] = python_s / kernel_s
    return metrics


def measure_tech() -> Dict[str, float]:
    from repro.harness.campaign import Campaign
    from repro.injection.calibration import LevelRateModel, OutcomeMixModel
    from repro.tech import get_node, list_nodes

    names = list_nodes()

    def lookups():
        for name in names:
            get_node(name)

    node = get_node("7nm")
    default_s = _timed(lambda: Campaign(seed=11, time_scale=0.005).run())
    node_s = _timed(
        lambda: Campaign(seed=11, time_scale=0.005, tech_node="7nm").run()
    )
    return {
        "nodes": float(len(names)),
        "lookup_all_s": _timed(lookups),
        "model_build_7nm_s": _timed(
            lambda: (
                LevelRateModel.for_node(node),
                OutcomeMixModel.for_node(node),
            )
        ),
        "campaign_default_s": default_s,
        "campaign_7nm_s": node_s,
        "campaign_overhead_x": node_s / default_s,
    }


#: Run in a fresh interpreter: time ``import repro.cli``, then report
#: what it loaded and the peak RSS (``ru_maxrss`` is in KiB on Linux).
_STARTUP_PROBE = """
import json, resource, sys, time
started = time.perf_counter()
import repro.cli
elapsed = time.perf_counter() - started
top = [name.split(".")[0] for name in sys.modules]
print(json.dumps({
    "import_s": elapsed,
    "repro": top.count("repro"),
    "scipy": top.count("scipy"),
    "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def measure_startup() -> Dict[str, float]:
    """What every verb pays before its first strike: ``import repro.cli``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    launches = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", _STARTUP_PROBE],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        for _ in range(STARTUP_LAUNCHES)
    ]
    maxrss_kib = statistics.median(run["maxrss_kib"] for run in launches)
    return {
        "import_cli_s": statistics.median(run["import_s"] for run in launches),
        "repro_modules": float(launches[0]["repro"]),
        "scipy_modules": float(launches[0]["scipy"]),
        "maxrss_mb": maxrss_kib / 1024,
    }


SUITES: Dict[str, Callable[[], Dict[str, float]]] = {
    "engine": measure_engine,
    "scheduler": measure_scheduler,
    "codecs": measure_codecs,
    "tech": measure_tech,
    "startup": measure_startup,
}


# -- the appender ------------------------------------------------------------


def _git_revision() -> str:
    """The checkout's short revision, ``-dirty`` when the tree has edits.

    A record taken on an uncommitted change must not carry the bare
    revision of the commit it started from.
    """
    try:
        return (
            subprocess.run(
                [
                    "git", "describe", "--always", "--dirty",
                    "--abbrev=7", "--exclude=*",
                ],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def append_record(suite: str, metrics: Dict[str, float]) -> str:
    path = os.path.join(REPO_ROOT, f"BENCH_{suite}.json")
    document = {"schema": 1, "suite": suite, "records": []}
    if os.path.exists(path):
        with open(path) as handle:
            document = json.load(handle)
    document["records"].append(
        {
            "recorded_unix": round(time.time(), 3),
            "git": _git_revision(),
            "python": platform.python_version(),
            "metrics": {key: round(value, 4) for key, value in metrics.items()},
        }
    )
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "suites",
        nargs="*",
        choices=[*SUITES, "all"],
        default=["all"],
        help="which BENCH files to append to (default: all)",
    )
    args = parser.parse_args(argv)
    picked = SUITES if "all" in args.suites else args.suites
    for suite in picked:
        metrics = SUITES[suite]()
        path = append_record(suite, metrics)
        print(f"{suite}: appended to {os.path.relpath(path, REPO_ROOT)}")
        for key, value in metrics.items():
            print(f"  {key} = {value:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
