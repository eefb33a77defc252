"""Deterministic retry envelope for transient shared-store I/O.

Network filesystems fail differently from local disks: an NFS client
under server failover returns ``ESTALE``, an overloaded fileserver
returns ``EIO`` or ``EAGAIN`` for operations that succeed moments
later.  Aborting a campaign drain on the first such errno throws away
hours of beam time over a hiccup; retrying forever wedges the broker.

:class:`RetryPolicy` bounds the middle ground.  It is deliberately
deterministic -- a fixed attempt budget and an exponential backoff with
*no* wall-clock jitter -- so that a chaos schedule injecting the same
transient faults always produces the same retry trace, the same
counters, and the same final state.  Transient errnos are a closed set
(:data:`TRANSIENT_ERRNOS`); anything else is permanent and propagates
unchanged on the first attempt.  An exhausted budget degrades to the
typed :class:`~repro.errors.StoreUnavailable`, never a bare ``OSError``.
"""

from __future__ import annotations

import errno
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TypeVar

from ..errors import SchedulerError, StoreUnavailable

#: Errnos that plausibly clear on retry (network-filesystem hiccups).
#: Everything else -- ENOSPC, EACCES, EROFS -- is permanent and must
#: surface immediately.
TRANSIENT_ERRNOS = frozenset(
    {
        errno.EIO,
        errno.ESTALE,
        errno.EAGAIN,
        errno.EBUSY,
        errno.ETIMEDOUT,
    }
)

T = TypeVar("T")


def backoff_delay(base_s: float, cap_s: float, attempt: int) -> float:
    """Seconds to wait before retry *attempt* (1-based).

    ``min(base_s * 2**(attempt-1), cap_s)``: exponential, capped and
    jitter-free, so a replayed fault schedule waits the same schedule.
    The one backoff of the harness -- both the store's I/O retries
    (:class:`RetryPolicy`) and the unit supervisor
    (:class:`~repro.resilient.SupervisionPolicy`) call it, each with its
    own base and cap.
    """
    return min(base_s * 2.0 ** (attempt - 1), cap_s)


def is_transient(exc: BaseException) -> bool:
    """True when *exc* is an OSError in the transient-errno set."""
    return isinstance(exc, OSError) and exc.errno in TRANSIENT_ERRNOS


@dataclass(frozen=True)
class RetryPolicy:
    """A bounded, deterministic retry budget for one store operation.

    Attributes
    ----------
    attempts:
        Total tries (first attempt included).  Exhausting them raises
        :class:`~repro.errors.StoreUnavailable`.
    base_delay_s / max_delay_s:
        Base and cap of the :func:`backoff_delay` before each retry.
    """

    attempts: int = 5
    base_delay_s: float = 0.005
    max_delay_s: float = 0.1

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise SchedulerError("retry attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise SchedulerError("retry delays must be nonnegative")

    def delays(self) -> Iterator[float]:
        """The deterministic backoff sequence (``attempts - 1`` long)."""
        for attempt in range(1, self.attempts):
            yield backoff_delay(self.base_delay_s, self.max_delay_s, attempt)

    def run(
        self,
        op: str,
        fn: Callable[[], T],
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Optional[Callable[[str], None]] = None,
    ) -> T:
        """Run *fn*, retrying transient OSErrors within the budget.

        *on_retry* is called (with the operation name) before each
        retry -- the store uses it to meter
        ``scheduler.store.retries``.  Permanent errors propagate
        unchanged; an exhausted budget raises
        :class:`~repro.errors.StoreUnavailable` chained to the last
        transient error.
        """
        last: Optional[OSError] = None
        for delay in self.delays():
            try:
                return fn()
            except OSError as exc:
                if not is_transient(exc):
                    raise
                last = exc
                if on_retry is not None:
                    on_retry(op)
                sleep(delay)
        try:
            return fn()
        except OSError as exc:
            if not is_transient(exc):
                raise
            last = exc
        raise StoreUnavailable(
            f"store operation {op!r} still failing after "
            f"{self.attempts} attempt(s): {last} -- the shared "
            f"filesystem looks unavailable; retry once it recovers"
        ) from last
