"""Supervision policy: timeouts, retries, backoff, failure taxonomy.

The paper classifies what the *DUT* does under beam as SDC, AppCrash or
SysCrash (Section 3.6).  The resilient layer applies the same taxonomy
to the *harness* itself -- a work unit that dies is triaged exactly like
an irradiated benchmark run:

* **AppCrash-like** (transient) -- the unit raised an exception; a
  restart (retry) is expected to clear it.
* **SysCrash-like** (transient) -- the worker process died or stopped
  responding (timeout, broken pool); the supervisor "power-cycles"
  (restarts the pool / reruns the unit) and retries.
* **SDC-like** (fatal) -- a deterministic configuration/programming
  error: rerunning would reproduce the same wrong behavior, so the unit
  is quarantined immediately instead of burning retries.

:class:`SupervisionPolicy` bundles the knobs.  Its per-unit timeout is
set directly (``run --timeout`` / ``serve --timeout``), and its retry
backoff is the shared :func:`repro.scheduler.retry.backoff_delay`, the
same capped doubling the store's I/O retries use.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..errors import (
    AnalysisError,
    ChaosError,
    ConfigurationError,
    ReproIOError,
    SupervisionError,
)
from ..scheduler.retry import backoff_delay


class FailureClass(Enum):
    """Triage verdict for a failed work unit (paper taxonomy, Section 3.6)."""

    #: Unit raised; retry after a restart (transient).
    APP_CRASH = "appcrash"
    #: Worker died / stopped responding; retry after a power-cycle
    #: (pool restart) -- transient.
    SYS_CRASH = "syscrash"
    #: Deterministically wrong configuration or code; retrying
    #: reproduces the same failure, so quarantine immediately.
    SDC = "sdc"

    @property
    def transient(self) -> bool:
        """True when a retry has a chance of clearing the failure."""
        return self is not FailureClass.SDC


class UnitTimeoutError(SupervisionError):
    """A work unit exceeded the supervision timeout (SysCrash-like)."""


#: Exception types whose recurrence is deterministic: retrying cannot
#: help, the unit is quarantined on first sight (SDC-like).
_FATAL_TYPES = (
    ConfigurationError,
    AnalysisError,
    ReproIOError,
    ChaosError,
    TypeError,
    ValueError,
    KeyError,
    AttributeError,
    ZeroDivisionError,
    AssertionError,
)

#: Exception types signalling the *worker*, not the unit, died
#: (SysCrash-like): process pool breakage, OS-level trouble, timeouts.
_SYSTEM_TYPES = (
    UnitTimeoutError,
    TimeoutError,
    BrokenProcessPool,
    ConnectionError,
    MemoryError,
    OSError,
)


def classify_failure(exc: BaseException) -> FailureClass:
    """Triage one work-unit exception into the paper's taxonomy.

    Chaos-injected faults (see :mod:`repro.resilient.chaos`) carry their
    own class and win over the type tables.
    """
    declared = getattr(exc, "failure_class", None)
    if isinstance(declared, FailureClass):
        return declared
    if isinstance(exc, _FATAL_TYPES):
        return FailureClass.SDC
    if isinstance(exc, _SYSTEM_TYPES):
        return FailureClass.SYS_CRASH
    return FailureClass.APP_CRASH


@dataclass(frozen=True)
class SupervisionPolicy:
    """How hard the supervisor fights for each work unit.

    Attributes
    ----------
    timeout_s:
        Per-unit response timeout; ``None`` disables timeout
        supervision (the default: simulated sessions are pure CPU work
        with no natural wall-clock bound).
    max_retries:
        Retries after the first attempt before a transient unit is
        quarantined.
    backoff_s / max_backoff_s:
        Deterministic exponential backoff between retries:
        ``backoff_s * 2**(attempt-1)``, capped (see
        :func:`~repro.scheduler.retry.backoff_delay`).  No jitter -- two
        runs of the same campaign wait the same schedule, and no RNG
        stream is ever touched.
    max_pool_breakages:
        Worker-pool deaths tolerated before the supervisor degrades
        from parallel to serial execution for the rest of the batch.
    """

    timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    max_pool_breakages: int = 2

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SupervisionError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise SupervisionError("max_retries must be nonnegative")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise SupervisionError("backoff must be nonnegative")
        if self.max_pool_breakages < 0:
            raise SupervisionError("max_pool_breakages must be nonnegative")

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to wait before retry *attempt* (1-based), capped."""
        if attempt < 1:
            raise SupervisionError("attempt is 1-based")
        return backoff_delay(self.backoff_s, self.max_backoff_s, attempt)

    def backoff_schedule(self) -> "list[float]":
        """The full deterministic retry schedule, for logs and docs."""
        return [
            self.backoff_delay(attempt)
            for attempt in range(1, self.max_retries + 1)
        ]
