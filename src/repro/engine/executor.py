"""Executors: the one run loop every batch workload fans out through.

A batch is a list of :class:`WorkUnit`\\ s -- picklable ``(fn, args,
kwargs)`` triples labeled with a stable key.  Executors return results
in submission order regardless of completion order, which is what makes
:class:`ParallelExecutor` output bit-identical to
:class:`SerialExecutor` output: every unit carries its own derived
seed, and the merge never depends on scheduling.

:class:`ParallelExecutor` is backed by a persistent
:class:`~repro.engine.pool.WorkerPool`: the process pool spawns lazily
on the first batch and stays warm across ``map()`` calls, and units
travel in deterministic chunks.  Pool *infrastructure* failures (no
``fork``, missing semaphores, unpicklable payloads, workers dying
faster than the respawn budget) fall back to in-process serial
execution; an exception raised by a unit function itself is re-raised
to the caller -- it is the unit's genuine result, not a pool problem.

Consumers: ``Campaign.run()``, the ``repro-experiment`` drivers, vmin
characterization, microarchitectural FI batches and the seed ensemble.
The verbs that checkpoint (``run``, ``explore``, ``serve``) and the
differential suite's broker pairings fly their units under
:class:`~repro.resilient.SupervisedExecutor` instead, settled through
:meth:`~repro.scheduler.Broker.settle`.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import EngineError, PoolUnavailable
from ..telemetry import NULL_TELEMETRY, Telemetry
from .pool import WarmupSpec, WorkerPool


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable unit of work.

    Attributes
    ----------
    key:
        Stable label used for logging and deterministic merging.
    fn:
        A picklable callable -- must be a module-level function for the
        process-pool path.
    args / kwargs:
        Arguments passed to ``fn``.  Everything must be picklable for
        parallel execution; derived integer seeds (not generators)
        should ride here.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def run(self) -> Any:
        """Execute the unit in the calling process."""
        return self.fn(*self.args, **self.kwargs)


class Executor:
    """Interface: run a batch of work units, results in submission order."""

    #: Human-readable executor label (used in CLI output and benches).
    name: str = "executor"

    def map(
        self,
        units: Sequence[WorkUnit],
        telemetry: Optional[Telemetry] = None,
    ) -> List[Any]:
        """Run every unit; return their results in submission order.

        ``telemetry`` receives an ``executor.map`` span, a
        ``engine.units`` count per unit, and per-unit duration
        observations.  Unit *counts* are identical across executors for
        the same batch; only the timings differ.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources, if any (no-op for in-process)."""


class SerialExecutor(Executor):
    """Runs units one after another in the calling process."""

    name = "serial"

    def map(
        self,
        units: Sequence[WorkUnit],
        telemetry: Optional[Telemetry] = None,
    ) -> List[Any]:
        tele = telemetry if telemetry is not None else NULL_TELEMETRY
        results: List[Any] = []
        with tele.span("executor.map", executor=self.name, units=len(units)):
            for unit in units:
                unit_started = time.perf_counter()
                results.append(unit.run())
                tele.observe(
                    "engine.unit_seconds", time.perf_counter() - unit_started
                )
            # One bulk increment on success keeps counts exact even if
            # a unit raised mid-batch.
            tele.count("engine.units", len(units))
        return results

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Fans units out over a persistent warm pool, merging in
    submission order.

    The underlying :class:`~repro.engine.pool.WorkerPool` spawns
    lazily on the first multi-unit batch and is reused by every later
    ``map()`` call, so a driver's successive batches ride the same
    warm workers.  Call :meth:`close` (or use the executor as a
    context manager) to release the processes.

    Parameters
    ----------
    workers:
        Maximum number of worker processes.
    warmup:
        Optional :class:`~repro.engine.pool.WarmupSpec` pre-building
        per-worker state (codec tables, injector modules) at spawn.
    """

    name = "parallel"

    def __init__(
        self, workers: int = 2, warmup: Optional[WarmupSpec] = None
    ) -> None:
        if workers < 1:
            raise EngineError("need at least one worker")
        self.workers = int(workers)
        self.pool = WorkerPool(workers=self.workers, warmup=warmup)

    def map(
        self,
        units: Sequence[WorkUnit],
        telemetry: Optional[Telemetry] = None,
    ) -> List[Any]:
        units = list(units)
        if len(units) <= 1 or self.workers == 1:
            return SerialExecutor().map(units, telemetry=telemetry)
        tele = telemetry if telemetry is not None else NULL_TELEMETRY
        try:
            with tele.span(
                "executor.map",
                executor=self.name,
                units=len(units),
                workers=self.workers,
            ):
                results = self.pool.map_chunks(units, telemetry=tele)
                # Counted only after every chunk resolved: a dead pool
                # falls back to serial, which does its own count.
                tele.count("engine.units", len(units))
                return results
        except PoolUnavailable:
            # Infrastructure only: no fork/spawn support, missing POSIX
            # semaphores, unpicklable payloads, respawn budget burned.
            # A unit's own exception propagates above instead.
            tele.count("engine.pool_fallbacks")
            return SerialExecutor().map(units, telemetry=telemetry)

    def close(self) -> None:
        """Release the worker processes (the pool respawns if reused)."""
        self.pool.close()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ParallelExecutor(workers={self.workers})"


def resolve_executor(
    workers: Optional[int], warmup: Optional[WarmupSpec] = None
) -> Executor:
    """Map a CLI-style ``--workers`` value onto an executor.

    ``None``, 0 or 1 mean serial; anything greater is a parallel pool
    of that many workers.  ``warmup`` configures the parallel
    executor's persistent pool and is ignored for serial.
    """
    if workers is None or workers <= 1:
        return SerialExecutor()
    return ParallelExecutor(workers, warmup=warmup)


def worker_count(text: str) -> int:
    """The argparse ``type`` of every verb's ``--workers`` option.

    A negative count is a usage error (exit 2) on every verb; 0 and 1
    run serially.
    """
    workers = int(text)
    if workers < 0:
        raise argparse.ArgumentTypeError(
            f"must be nonnegative (0 or 1 runs serially), got {workers}"
        )
    return workers
