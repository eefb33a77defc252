"""Persistent warm worker pools with chunked dispatch.

Spawning a :class:`~concurrent.futures.ProcessPoolExecutor` costs on
the order of 100 ms, and every cold worker re-imports repro and
rebuilds codec syndrome tables (BCH t=3 carries ~117k entries) and
injector rate caches from scratch.  Paying that per ``map()`` call is
invisible for one four-session campaign and ruinous for a service loop
draining thousands of small leased batches.  :class:`WorkerPool` makes
the pool a long-lived resource instead:

* **warm reuse** -- the pool is spawned lazily on first use and kept
  alive across ``map()`` calls, broker drain batches, service jobs and
  explorer cells; a worker ``initializer`` pre-builds expensive
  per-process state once (:class:`WarmupSpec`: codec bundles via the
  registry, injector modules) instead of per unit;
* **chunked dispatch** -- units go out in deterministic chunks of K:
  one pickle and one IPC round trip per chunk instead of per unit.
  Results are merged strictly in submission order, so chunking changes
  *when* work runs, never *what* the caller sees -- serial == parallel
  byte-identity is untouched for every chunk size;
* **lifecycle** -- health-checked reuse, explicit :meth:`~WorkerPool.
  close`, and chaos-compatible kill/respawn: a worker killed mid-chunk
  breaks the pool, the pool respawns (bounded budget) and re-dispatches
  the unfinished chunks, and the submission-order merge is preserved.

Failure taxonomy (the satellite contract): an exception raised *by a
unit function* is shipped back per-unit and re-raised in the parent --
never swallowed into a serial fallback.  Only infrastructure failures
(payload not picklable, spawn failure, pool broken beyond its respawn
budget) raise :class:`~repro.errors.PoolUnavailable`, which is what
executors translate into their fallback/degradation policies.

Telemetry rides in the ``engine.pool.*`` namespace (spawns, reuses,
respawns, chunk pickle bytes/seconds, warm-cache hits), which the
determinism comparisons already exclude: pool bookkeeping depends on
scheduling, the physics does not.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import PoolUnavailable
from ..telemetry import NULL_TELEMETRY, Telemetry

#: How many chunks a pool breakage may force back out before the pool
#: declares itself unavailable.
DEFAULT_MAX_RESPAWNS = 2

#: Upper bound for the automatic chunk size: beyond this, larger
#: chunks only grow pickle payloads without reducing round trips much.
_MAX_AUTO_CHUNK = 32


@dataclass(frozen=True)
class WarmupSpec:
    """What a worker process pre-builds at spawn time.

    Picklable and frozen: it travels to every worker exactly once, via
    the pool initializer.

    Attributes
    ----------
    codecs:
        Registry names whose scalar + vectorized bundles (H matrices,
        syndrome tables) are built eagerly via
        :func:`repro.codecs.get_codec`.
    injector:
        Import the injection stack and construct its default rate
        models, so the first unit does not pay those imports.
    modules:
        Extra module paths to import (e.g. ``repro.harness.campaign``
        pulls the whole campaign dependency tree in one line).
    """

    codecs: Tuple[str, ...] = ()
    injector: bool = False
    modules: Tuple[str, ...] = ()


#: Warm-up for campaign-shaped units (`_fly_session` and friends).
CAMPAIGN_WARMUP = WarmupSpec(injector=True, modules=("repro.harness.campaign",))


def warm_process(spec: WarmupSpec) -> None:
    """Pre-build *spec*'s per-process state in the calling process."""
    import importlib

    for module in spec.modules:
        importlib.import_module(module)
    if spec.injector:
        from ..injection.calibration import LevelRateModel, OutcomeMixModel

        LevelRateModel()
        OutcomeMixModel()
    if spec.codecs:
        from ..codecs import get_codec

        for name in spec.codecs:
            bundle = get_codec(name)
            bundle.codec
            bundle.vectorized


# -- worker-side state --------------------------------------------------------------

#: Per-process chunk bookkeeping; ``warmed`` means the initializer ran.
_WORKER_STATE: Dict[str, Any] = {"warmed": False, "chunks": 0}


#: How often a worker checks that the process owning its pool lives (s).
_OWNER_POLL_S = 0.2


def _exit_when_orphaned(owner: int) -> None:
    """End this worker once *owner* is gone.

    An owner killed outright (SIGKILL) never shuts its pool down, and
    its workers would block on the dead owner's call queue for good.
    The kernel re-parents an orphan, so a changed parent pid is the
    owner's death.
    """
    while os.getppid() == owner:
        time.sleep(_OWNER_POLL_S)
    os._exit(1)


def _initialize_worker(spec: WarmupSpec) -> None:
    # A forked worker inherits asyncio's wakeup fd, so its signals would
    # land in the owner's self-pipe.  SIGTERM ends the worker alone;
    # Ctrl-C is the owner's to handle, and it drains the pool.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_when_orphaned,
        args=(os.getppid(),),
        name="owner-watch",
        daemon=True,
    ).start()
    warm_process(spec)
    _WORKER_STATE["warmed"] = True


# -- the chunk protocol -------------------------------------------------------------


class _ChunkTransportError(Exception):
    """Worker-side encode/decode failure: infrastructure, not a unit."""


def _run_chunk(payload: bytes) -> Tuple[bytes, dict]:
    """Worker-side chunk loop: decode, run each unit, encode outcomes.

    Unit exceptions are *outcomes*, shipped back per-unit, so the
    parent can re-raise the genuine error in submission order.  Only
    transport trouble (an unpicklable result) raises -- as
    :class:`_ChunkTransportError`, which the parent treats as pool
    infrastructure failing, exactly like a broken pool.
    """
    try:
        calls = pickle.loads(payload)
    except Exception as exc:
        raise _ChunkTransportError(
            f"chunk payload decode failed: {exc!r}"
        ) from None
    warm = _WORKER_STATE["warmed"] or _WORKER_STATE["chunks"] > 0
    _WORKER_STATE["chunks"] += 1
    outcomes: List[Tuple[bool, Any]] = []
    durations: List[float] = []
    for fn, args, kwargs in calls:
        unit_started = time.perf_counter()
        try:
            outcomes.append((True, fn(*args, **kwargs)))
        except Exception as exc:
            outcomes.append((False, exc))
        durations.append(time.perf_counter() - unit_started)
    encode_started = time.perf_counter()
    try:
        data = pickle.dumps(outcomes, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise _ChunkTransportError(
            f"chunk result encode failed: {exc!r}"
        ) from None
    meta = {
        "warm": warm,
        "unit_seconds": durations,
        "encode_seconds": time.perf_counter() - encode_started,
        "result_bytes": len(data),
    }
    return data, meta


def auto_chunk(units: int, workers: int) -> int:
    """Deterministic default chunk size for *units* over *workers*.

    Aim for a few chunks per worker (so stragglers even out) without
    ever degenerating to one unit per IPC round trip on big batches.
    """
    if units <= 0:
        return 1
    per_worker = -(-units // max(workers, 1))  # ceil
    return max(1, min(_MAX_AUTO_CHUNK, -(-per_worker // 4)))


class WorkerPool:
    """A reusable, warm, chunk-dispatching process pool.

    Parameters
    ----------
    workers:
        Worker process count (the pool spawns them lazily on demand).
    warmup:
        Optional :class:`WarmupSpec` run in every worker at spawn.
    chunk:
        Fixed chunk size for :meth:`map_chunks`; ``None`` picks
        :func:`auto_chunk` per batch.
    max_respawns:
        Pool breakages tolerated per :meth:`map_chunks` call before
        raising :class:`~repro.errors.PoolUnavailable`.
    """

    def __init__(
        self,
        workers: int,
        warmup: Optional[WarmupSpec] = None,
        chunk: Optional[int] = None,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
    ) -> None:
        if workers < 1:
            raise PoolUnavailable("a worker pool needs at least one worker")
        if chunk is not None and chunk < 1:
            raise PoolUnavailable("chunk size must be positive")
        self.workers = int(workers)
        self.warmup = warmup or WarmupSpec()
        self.chunk = chunk
        self.max_respawns = int(max_respawns)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._broken = False

    # -- lifecycle ---------------------------------------------------------------

    @property
    def live(self) -> bool:
        """True while a healthy pool instance exists."""
        return self._pool is not None and not self._broken

    def ensure(self, telemetry: Optional[Telemetry] = None) -> ProcessPoolExecutor:
        """The live pool, spawning (or respawning) when needed.

        Raises whatever the platform raises when process pools cannot
        exist at all (no fork/spawn, missing semaphores); callers map
        that onto their fallback policy.
        """
        tele = telemetry if telemetry is not None else NULL_TELEMETRY
        if self.live:
            tele.count("engine.pool.reuses")
            return self._pool
        respawn = self._pool is not None
        if respawn:
            self._discard(cancel=True)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_initialize_worker,
            initargs=(self.warmup,),
        )
        self._broken = False
        tele.count("engine.pool.respawns" if respawn else "engine.pool.spawns")
        return self._pool

    def mark_broken(self) -> None:
        """Record that the pool's processes are gone (health check)."""
        self._broken = True

    def kill_workers(self, telemetry: Optional[Telemetry] = None) -> None:
        """Power-cycle: kill every worker now, pool respawns on next use.

        ``shutdown(cancel_futures=True)`` only cancels *pending*
        futures -- a hung unit keeps executing in its worker, and since
        ``concurrent.futures`` joins workers at interpreter exit, one
        genuinely hung unit could hang the process on exit.  Killing
        the snapshotted workers is the supervised executor's timeout
        semantics, kept here so every owner of a pool gets it.
        """
        tele = telemetry if telemetry is not None else NULL_TELEMETRY
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        self._broken = False
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            try:
                proc.kill()
            except (OSError, ValueError, AttributeError):
                pass  # already dead / exotic platform
        for proc in processes:
            try:
                proc.join(timeout=5.0)
            except (OSError, ValueError, AssertionError):
                pass
        tele.count("engine.pool.kills")

    def close(self, cancel: bool = False) -> None:
        """Shut the pool down; the next use spawns a fresh one."""
        self._discard(cancel=cancel)

    def _discard(self, cancel: bool) -> None:
        pool, self._pool = self._pool, None
        self._broken = False
        if pool is not None:
            pool.shutdown(wait=not cancel, cancel_futures=cancel)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- per-unit dispatch (supervised path) -------------------------------------

    def submit(self, fn, /, *args, **kwargs):
        """One unit, one future -- for callers that need per-unit
        timeouts and retry budgets (the supervised executor)."""
        try:
            return self.ensure().submit(fn, *args, **kwargs)
        except BrokenProcessPool:  # a worker died while the pool idled
            self.mark_broken()
            return self.ensure().submit(fn, *args, **kwargs)

    # -- chunked dispatch --------------------------------------------------------

    def map_chunks(
        self,
        units: Sequence,
        telemetry: Optional[Telemetry] = None,
    ) -> List[Any]:
        """Run :class:`~repro.engine.WorkUnit`-shaped units; results in
        submission order.

        Raises the first failing unit's own exception (submission
        order), or :class:`~repro.errors.PoolUnavailable` when the pool
        infrastructure itself is the problem.
        """
        tele = telemetry if telemetry is not None else NULL_TELEMETRY
        units = list(units)
        if not units:
            return []
        size = self.chunk or auto_chunk(len(units), self.workers)
        chunks = [units[i : i + size] for i in range(0, len(units), size)]
        outcomes: List[Optional[List[Tuple[bool, Any]]]] = [None] * len(chunks)
        metas: List[Optional[dict]] = [None] * len(chunks)
        respawns_left = self.max_respawns
        while any(done is None for done in outcomes):
            try:
                pool = self.ensure(tele)
            except (OSError, ValueError, RuntimeError, ImportError) as exc:
                raise PoolUnavailable(
                    f"cannot spawn worker processes: {exc!r}"
                ) from exc
            pending = [i for i, done in enumerate(outcomes) if done is None]
            futures: Dict[int, Any] = {}
            try:
                for index in pending:
                    payload = self._encode_chunk(chunks[index], tele)
                    futures[index] = pool.submit(_run_chunk, payload)
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                # The payload itself cannot travel (lambdas, open
                # handles): deterministic, no point respawning.
                raise PoolUnavailable(
                    f"chunk payload not picklable: {exc!r}"
                ) from exc
            except (BrokenProcessPool, RuntimeError):
                # RuntimeError: submit on a pool shut down under us --
                # same remedy as a breakage, respawn within budget.
                self.mark_broken()
                respawns_left = self._budget(respawns_left)
                continue
            try:
                for index in pending:
                    data, meta = futures[index].result()
                    outcomes[index] = self._decode_result(data)
                    metas[index] = meta
                    self._observe_chunk(meta, tele)
            except BrokenProcessPool:
                self.mark_broken()
                respawns_left = self._budget(respawns_left)
                continue
            except Exception as exc:
                # Unit exceptions travel *inside* outcomes, so anything
                # raised at this layer -- a transport error shipped by
                # the worker, an import dying in the result path -- is
                # infrastructure.  Deterministic: do not respawn.
                raise PoolUnavailable(
                    f"chunk transport failed: {exc}"
                ) from exc
        return self._merge(outcomes, metas, tele)

    def _budget(self, respawns_left: int) -> int:
        if respawns_left <= 0:
            self.close(cancel=True)
            raise PoolUnavailable(
                f"worker pool broke more than {self.max_respawns} time(s) "
                f"in one batch"
            )
        return respawns_left - 1

    @staticmethod
    def _encode_chunk(chunk, tele: Telemetry) -> bytes:
        encode_started = time.perf_counter()
        payload = pickle.dumps(
            [(unit.fn, unit.args, unit.kwargs) for unit in chunk],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        tele.observe(
            "engine.pool.pickle_seconds",
            time.perf_counter() - encode_started,
        )
        tele.count("engine.pool.pickle_bytes", n=len(payload))
        tele.count("engine.pool.chunks")
        return payload

    @staticmethod
    def _decode_result(data: bytes) -> List[Tuple[bool, Any]]:
        try:
            return pickle.loads(data)
        except Exception as exc:
            raise _ChunkTransportError(
                f"chunk result decode failed: {exc!r}"
            ) from None

    @staticmethod
    def _observe_chunk(meta: dict, tele: Telemetry) -> None:
        tele.count(
            "engine.pool.warm_hits" if meta["warm"]
            else "engine.pool.cold_chunks"
        )
        tele.count("engine.pool.pickle_bytes", n=meta["result_bytes"])
        tele.observe("engine.pool.pickle_seconds", meta["encode_seconds"])

    @staticmethod
    def _merge(outcomes, metas, tele: Telemetry) -> List[Any]:
        """Flatten chunk outcomes back into submission order.

        Per-unit ``engine.unit_seconds`` observations use the worker's
        own measured run time -- genuine per-unit latency, not the
        cumulative collect-loop time the pre-pool executor reported.
        A failed unit's own exception is re-raised at its submission
        position; by this point every chunk has settled, so nothing is
        left in flight and the pool stays healthy for the next batch.
        """
        results: List[Any] = []
        for chunk_outcomes, meta in zip(outcomes, metas):
            for (ok, value), duration in zip(
                chunk_outcomes, meta["unit_seconds"]
            ):
                if not ok:
                    raise value
                tele.observe("engine.unit_seconds", duration)
                results.append(value)
        return results

    def __repr__(self) -> str:
        return (
            f"WorkerPool(workers={self.workers}, chunk={self.chunk}, "
            f"live={self.live})"
        )
