"""Unified execution layer: contexts, work units and executors.

Every batch-shaped workload in the reproduction -- the four-session
campaign, multi-seed ensembles, vmin characterization sweeps,
microarchitectural FI batches -- used to carry its own ad-hoc run loop
and its own seed/time-scale plumbing.  This package centralizes both:

* :class:`ExecutionContext` bundles the root seed, the time scale, an
  optional campaign-wide flux override and an optional telemetry sink,
  and hands out deterministic derived seeds/streams.
* :class:`WorkUnit` is one picklable unit of work (a top-level function
  plus arguments), labeled with a stable key.
* :class:`SerialExecutor` runs units in order in-process;
  :class:`ParallelExecutor` fans them out over a process pool and
  merges results in submission order, so parallel output is
  bit-identical to serial output for the same seed.  If worker
  processes cannot be spawned it degrades gracefully to serial.
* :class:`WorkerPool` is the persistent process pool behind the
  parallel executors: warm reuse across batches and chunked dispatch.
"""

from .context import ExecutionContext
from .executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    WorkUnit,
    resolve_executor,
)
from .pool import CAMPAIGN_WARMUP, WarmupSpec, WorkerPool, warm_process

__all__ = [
    "CAMPAIGN_WARMUP",
    "ExecutionContext",
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "WarmupSpec",
    "WorkUnit",
    "WorkerPool",
    "resolve_executor",
    "warm_process",
]
