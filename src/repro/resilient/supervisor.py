"""SupervisedExecutor: per-unit timeouts, retries, quarantine, degradation.

Wraps the engine's execution model with the supervision loop a real
beam-campaign Control-PC runs: every work unit gets a response timeout
and a bounded, deterministically backed-off retry budget; failures are
triaged with the paper's SDC/AppCrash/SysCrash taxonomy
(:func:`~repro.resilient.policy.classify_failure`); units that keep
failing are *quarantined* (the batch continues without them, exactly
like a benchmark pulled from the rotation); and when worker processes
keep dying the executor degrades from parallel to serial rather than
aborting the campaign.

Determinism contract: supervision never touches an RNG stream -- units
derive their own streams from ``(seed, key)``, so a unit that succeeds
on attempt 3 returns the byte-identical result it would have returned
on attempt 1, and a campaign that survives injected faults produces
byte-identical artifacts to one that never saw them.

Results are delivered through one required callback,
``on_result(index, report, result)``, exactly once per unit and in
submission order; a quarantined unit arrives with ``result=None`` (the
rest of the batch keeps flying).  ``map`` returns nothing and keeps no
reference to a unit's result once its callback returns, so a caller
that encodes and persists each result holds at most one live result at
a time -- :meth:`repro.scheduler.Broker.settle` is that caller for
``run``, ``explore`` and the broker pairings, and the service settles
through its own locked callback.
"""

from __future__ import annotations

import concurrent.futures
import os
import queue
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..engine.executor import WorkUnit
from ..engine.pool import WarmupSpec, WorkerPool
from ..errors import CampaignInterrupted, SupervisionError
from ..telemetry import NULL_TELEMETRY, Telemetry
from .chaos import ChaosSpec, chaos_call
from .policy import (
    FailureClass,
    SupervisionPolicy,
    UnitTimeoutError,
    classify_failure,
)


@dataclass
class UnitReport:
    """Supervision outcome of one work unit (ok or quarantined)."""

    key: str
    status: str  # "ok" | "quarantined"
    attempts: int
    retries: int
    timeouts: int
    failure_class: Optional[FailureClass] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failure_class": (
                self.failure_class.value if self.failure_class else None
            ),
            "error": self.error,
        }


@dataclass
class _UnitState:
    """Book-keeping for one in-flight unit (parallel path)."""

    unit: WorkUnit
    attempt: int = 0
    retries: int = 0
    timeouts: int = 0
    future: Optional[concurrent.futures.Future] = None
    done: bool = False


def _run_in_thread(unit: WorkUnit, timeout_s: float) -> Any:
    """Run a unit with a wall-clock bound (serial path).

    The unit runs on a daemon thread; on timeout the thread is
    abandoned (it holds no locks and its result is discarded) and
    :class:`UnitTimeoutError` is raised, mirroring the Control-PC
    declaring a run dead after the response timeout.
    """
    channel: "queue.Queue[tuple[bool, Any]]" = queue.Queue(maxsize=1)

    def _target() -> None:
        try:
            channel.put((True, unit.run()))
        except BaseException as exc:  # ship the failure to the supervisor
            channel.put((False, exc))

    thread = threading.Thread(
        target=_target, name=f"repro-unit-{unit.key}", daemon=True
    )
    thread.start()
    try:
        ok, payload = channel.get(timeout=timeout_s)
    except queue.Empty:
        raise UnitTimeoutError(
            f"unit {unit.key!r} exceeded the {timeout_s:.3f}s response "
            f"timeout"
        ) from None
    if ok:
        return payload
    raise payload


#: ``on_result(index, report, result)``; *result* is None when quarantined.
OnResult = Callable[[int, UnitReport, Any], None]


class SupervisedExecutor:
    """Fault-tolerant executor: the resilient layer's one run loop.

    Parameters
    ----------
    policy:
        Timeout/retry/backoff/degradation knobs
        (:class:`~repro.resilient.policy.SupervisionPolicy`).
    workers:
        Worker processes; 0/1 = serial in-process execution.
    chaos:
        Optional :class:`~repro.resilient.chaos.ChaosSpec` injecting
        deterministic faults into unit attempts (harness self-test).
    sleep:
        Backoff sleeper, injectable so tests assert the deterministic
        schedule without waiting it out.
    warmup:
        Optional :class:`~repro.engine.pool.WarmupSpec` pre-building
        per-worker state when the pool spawns.

    The worker pool is a persistent :class:`~repro.engine.pool.
    WorkerPool`: it spawns lazily on the first parallel batch and is
    reused across ``map()`` calls (service jobs, broker settle batches)
    until :meth:`close`.  Supervision dispatches one future per unit --
    per-unit timeouts and retry budgets need per-unit completion, so
    this path deliberately skips chunked dispatch.
    """

    name = "supervised"

    def __init__(
        self,
        policy: Optional[SupervisionPolicy] = None,
        workers: int = 1,
        chaos: Optional[ChaosSpec] = None,
        sleep: Callable[[float], None] = time.sleep,
        warmup: Optional[WarmupSpec] = None,
    ) -> None:
        if workers < 0:
            raise SupervisionError("workers must be nonnegative")
        self.policy = policy or SupervisionPolicy()
        self.workers = int(workers)
        self.chaos = chaos
        self._sleep = sleep
        self.pool: Optional[WorkerPool] = (
            WorkerPool(self.workers, warmup=warmup)
            if self.workers > 1
            else None
        )

    def close(self) -> None:
        """Release the worker processes (respawned lazily if reused)."""
        if self.pool is not None:
            self.pool.close()

    # -- public API --------------------------------------------------------------

    def map(
        self,
        units: Sequence[WorkUnit],
        on_result: OnResult,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        """Supervise a batch, reporting each unit once through *on_result*.

        ``on_result(index, report, result)`` fires in submission order
        as each unit settles (``result`` is None for a quarantined
        unit).  Nothing is returned and nothing is kept: once the
        callback returns, the executor holds no reference to the result.
        """
        units = list(units)
        tele = telemetry if telemetry is not None else NULL_TELEMETRY

        def deliver(index: int, report: UnitReport, result: Any) -> None:
            if report.ok:
                tele.count("engine.units")
            on_result(index, report, result)

        with tele.span(
            "supervisor.map",
            executor=self.name,
            units=len(units),
            workers=self.workers,
        ):
            if self.workers > 1 and len(units) > 1:
                self._map_parallel(units, tele, deliver)
            else:
                self._map_serial(units, tele, deliver)

    # -- shared supervision machinery --------------------------------------------

    def _wrap(self, unit: WorkUnit, attempt: int) -> WorkUnit:
        """The unit as actually executed for one attempt (chaos-aware)."""
        if self.chaos is None:
            return unit
        fault = self.chaos.fault_for(unit.key, attempt)
        return WorkUnit(
            key=unit.key,
            fn=chaos_call,
            args=(
                fault,
                self.chaos.hang_s,
                unit.key,
                attempt,
                os.getpid(),
                unit.fn,
                unit.args,
                unit.kwargs,
            ),
        )

    def _on_failure(
        self,
        state: _UnitState,
        exc: BaseException,
        tele: Telemetry,
    ) -> Optional[UnitReport]:
        """Triage one failed attempt.

        Returns the final (quarantined) report when the unit is out of
        budget, or ``None`` when the supervisor should retry.
        """
        failure_class = classify_failure(exc)
        tele.count("resilient.failures", unit_class=failure_class.value)
        if isinstance(exc, UnitTimeoutError):
            state.timeouts += 1
            tele.count("resilient.timeouts")
        retry = (
            failure_class.transient
            and state.retries < self.policy.max_retries
        )
        if not retry:
            tele.count("resilient.quarantined", unit_class=failure_class.value)
            return UnitReport(
                key=state.unit.key,
                status="quarantined",
                attempts=state.attempt + 1,
                retries=state.retries,
                timeouts=state.timeouts,
                failure_class=failure_class,
                error=f"{exc.__class__.__name__}: {exc}",
            )
        state.retries += 1
        state.attempt += 1
        tele.count("resilient.retries", unit_class=failure_class.value)
        self._sleep(self.policy.backoff_delay(state.retries))
        return None

    # -- serial path -------------------------------------------------------------

    def _attempt_serial(self, unit: WorkUnit, attempt: int) -> Any:
        wrapped = self._wrap(unit, attempt)
        if self.policy.timeout_s is None:
            return wrapped.run()
        return _run_in_thread(wrapped, self.policy.timeout_s)

    def _map_serial(
        self,
        units: Sequence[WorkUnit],
        tele: Telemetry,
        on_result: OnResult,
    ) -> None:
        for index, unit in enumerate(units):
            # No local holds the result: it lives only in the callback.
            on_result(index, *self._supervise_one(_UnitState(unit=unit), tele))

    def _supervise_one(self, state: _UnitState, tele: Telemetry):
        """Run one unit to completion in-process; ``(report, result)``.

        Takes an existing :class:`_UnitState` (not just a unit) so the
        parallel-to-serial degradation path keeps the attempt/retry/
        timeout budget a unit already burned in the pool -- and so
        chaos faults keep firing at the right attempt numbers.
        """
        unit = state.unit
        while True:
            attempt_started = time.perf_counter()
            try:
                result = self._attempt_serial(unit, state.attempt)
            except CampaignInterrupted:
                raise
            except Exception as exc:
                report = self._on_failure(state, exc, tele)
                if report is None:
                    continue
                result = None
            else:
                tele.observe(
                    "engine.unit_seconds",
                    time.perf_counter() - attempt_started,
                )
                report = UnitReport(
                    key=unit.key,
                    status="ok",
                    attempts=state.attempt + 1,
                    retries=state.retries,
                    timeouts=state.timeouts,
                )
            state.done = True
            return report, result

    # -- parallel path -----------------------------------------------------------

    def _map_parallel(
        self,
        units: Sequence[WorkUnit],
        tele: Telemetry,
        on_result: OnResult,
    ) -> None:
        states = [_UnitState(unit=unit) for unit in units]
        breakages = 0
        degraded = False
        pool = self.pool

        def _submit(state: _UnitState) -> None:
            wrapped = self._wrap(state.unit, state.attempt)
            state.future = pool.submit(
                wrapped.fn, *wrapped.args, **wrapped.kwargs
            )

        def _resubmit_pending() -> None:
            # After a pool breakage every uncollected future is void;
            # units are pure functions of their arguments, so rerunning
            # them at their current attempt number is safe and cannot
            # perturb any RNG stream.
            for state in states:
                if not state.done:
                    _submit(state)

        try:
            try:
                pool.ensure(tele)
                for state in states:
                    _submit(state)
            except (OSError, ValueError, RuntimeError, ImportError):
                # No process support at all: degrade immediately.
                tele.count("resilient.degraded")
                self._map_serial(units, tele, on_result)
                return

            for index, state in enumerate(states):
                result = None  # stays None for a quarantined unit
                while not state.done:
                    if degraded:
                        # Continue the *same* _UnitState serially so the
                        # attempt/retry/timeout budget already burned in
                        # the pool carries over instead of resetting.
                        report, result = self._supervise_one(state, tele)
                        break
                    dispatch_started = time.perf_counter()
                    try:
                        result = state.future.result(
                            timeout=self.policy.timeout_s
                        )
                    except concurrent.futures.TimeoutError:
                        # The worker may be hung; the future cannot be
                        # cancelled once running, so retire the whole
                        # pool (a Control-PC power cycle) and count it
                        # as a breakage.
                        breakages += 1
                        tele.count("resilient.pool_breakages")
                        pool.kill_workers(tele)
                        exceeded = breakages > self.policy.max_pool_breakages
                        if exceeded:
                            degraded = True
                            tele.count("resilient.degraded")
                        else:
                            pool.ensure(tele)
                        timeout_exc = UnitTimeoutError(
                            f"unit {state.unit.key!r} exceeded the "
                            f"{self.policy.timeout_s:.3f}s response timeout"
                        )
                        report = self._on_failure(state, timeout_exc, tele)
                        state.done = report is not None
                        if not degraded:
                            _resubmit_pending()
                        continue
                    except BrokenProcessPool:
                        # The pool died; the unit whose future we were
                        # waiting on is not necessarily the culprit, so
                        # breakages are budgeted separately
                        # (max_pool_breakages) and never consume a
                        # unit's retry budget.
                        breakages += 1
                        tele.count("resilient.pool_breakages")
                        pool.mark_broken()
                        if breakages > self.policy.max_pool_breakages:
                            degraded = True
                            tele.count("resilient.degraded")
                            continue
                        pool.ensure(tele)
                        _resubmit_pending()
                        continue
                    except CampaignInterrupted:
                        raise
                    except Exception as exc:
                        report = self._on_failure(state, exc, tele)
                        if report is None:
                            _submit(state)
                        else:
                            state.done = True
                        continue
                    # Success.
                    tele.observe(
                        "engine.unit_seconds",
                        time.perf_counter() - dispatch_started,
                    )
                    report = UnitReport(
                        key=state.unit.key,
                        status="ok",
                        attempts=state.attempt + 1,
                        retries=state.retries,
                        timeouts=state.timeouts,
                    )
                    state.done = True
                on_result(index, report, result)
                # The callback owned the result; the future still holds
                # it, so drop the future before waiting on the next unit.
                state.future = None
        except BaseException:
            # Interrupt/SIGTERM path: release the processes instead of
            # keeping a half-cancelled pool warm.
            pool.close(cancel=True)
            raise
        if degraded:
            # The pool was killed or marked broken on the way down;
            # reap whatever is left so nothing lingers next to the
            # serial continuation.
            pool.close(cancel=True)

    def __repr__(self) -> str:
        return (
            f"SupervisedExecutor(workers={self.workers}, "
            f"policy={self.policy!r})"
        )
