"""Chaos harness: deterministic fault injection into the harness itself.

The rest of the package injects faults into a simulated chip; this
module injects faults into the *campaign runner* so the resilience
machinery can be tested the same way the paper tests the DUT --
deterministically, from a declarative plan.  A :class:`ChaosSpec` names,
per work-unit key and attempt number, exactly which fault fires:

========  ====================================================================
fault     effect
========  ====================================================================
``ok``    no fault; the unit runs normally
``raise`` raise a transient (AppCrash-like) exception before the unit runs
``fatal`` raise a fatal (SDC-like) exception -- quarantined, never retried
``hang``  sleep past the supervision timeout (SysCrash-like)
``kill``  hard-kill the worker process (``os._exit``) so the pool breaks;
          under serial execution this degrades to a transient raise
========  ====================================================================

Because the fault is selected on the *submitting* side from
``(key, attempt)`` alone and shipped to workers as a plain string, chaos
runs are fully reproducible: the same spec against the same campaign
produces the same retries, the same quarantines, and -- because unit
RNG streams derive from ``(seed, label)`` only -- byte-identical
campaign results once the faults are survived.

``crash_after_units`` additionally crashes the *runner* (not a worker)
after the N-th unit has been committed, which is how the tests
simulate a mid-campaign SIGTERM at an exact, reproducible point.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..errors import CampaignInterrupted, ChaosError
from .policy import FailureClass

#: The closed set of injectable faults.
FAULT_KINDS = ("ok", "raise", "fatal", "hang", "kill")


class ChaosTransientError(Exception):
    """An injected AppCrash-like fault (cleared by retry)."""

    failure_class = FailureClass.APP_CRASH


class ChaosFatalError(Exception):
    """An injected SDC-like fault (deterministic; quarantine)."""

    failure_class = FailureClass.SDC


class SimulatedCrash(CampaignInterrupted):
    """The runner 'lost power' mid-campaign (``crash_after_units``)."""


@dataclass(frozen=True)
class ChaosSpec:
    """A declarative, deterministic fault plan for one campaign run.

    Attributes
    ----------
    units:
        ``key -> faults per attempt``; attempt *i* (0-based) draws
        ``faults[i]``, attempts past the end of the list run clean.
    hang_s:
        How long a ``hang`` fault sleeps (keep it just above the
        supervision timeout in tests).
    crash_after_units:
        Crash the runner with :class:`SimulatedCrash` once this many
        units have been committed (``None`` = never).
    """

    units: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    hang_s: float = 0.5
    crash_after_units: Optional[int] = None

    def __post_init__(self) -> None:
        normalized = {}
        for key, faults in self.units.items():
            faults = tuple(faults)
            for fault in faults:
                if fault not in FAULT_KINDS:
                    raise ChaosError(
                        f"unknown fault {fault!r} for unit {key!r}; "
                        f"choose from {FAULT_KINDS}"
                    )
            normalized[key] = faults
        object.__setattr__(self, "units", normalized)
        if self.hang_s < 0:
            raise ChaosError("hang_s must be nonnegative")
        if self.crash_after_units is not None and self.crash_after_units < 0:
            raise ChaosError("crash_after_units must be nonnegative")

    def fault_for(self, key: str, attempt: int) -> str:
        """The fault that fires for ``(key, attempt)`` (0-based attempt)."""
        faults = self.units.get(key, ())
        if 0 <= attempt < len(faults):
            return faults[attempt]
        return "ok"

    def touches(self, key: str) -> bool:
        """True if this spec injects anything into the given unit."""
        return any(f != "ok" for f in self.units.get(key, ()))

    # -- (de)serialization (CLI --chaos, CI) -------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosSpec":
        """Build a spec from a JSON-shaped dict."""
        if not isinstance(data, dict):
            raise ChaosError(f"chaos spec must be an object, got {data!r}")
        unknown = set(data) - {"units", "hang_s", "crash_after_units"}
        if unknown:
            raise ChaosError(f"unknown chaos spec fields: {sorted(unknown)}")
        units = data.get("units", {})
        if not isinstance(units, dict):
            raise ChaosError("chaos spec 'units' must map key -> fault list")
        return cls(
            units={k: tuple(v) for k, v in units.items()},
            hang_s=float(data.get("hang_s", 0.5)),
            crash_after_units=data.get("crash_after_units"),
        )

    @classmethod
    def from_json(cls, text_or_path: str) -> "ChaosSpec":
        """Parse a spec from inline JSON or a path to a JSON file."""
        text = text_or_path
        if os.path.exists(text_or_path):
            with open(text_or_path) as handle:
                text = handle.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ChaosError(f"invalid chaos spec JSON: {exc}") from exc
        return cls.from_dict(data)


def chaos_call(
    fault: str,
    hang_s: float,
    key: str,
    attempt: int,
    parent_pid: int,
    fn: Callable[..., Any],
    args: Sequence[Any],
    kwargs: Dict[str, Any],
) -> Any:
    """Run one (possibly faulted) unit attempt.

    Module-level so it pickles into worker processes; the fault arrives
    pre-selected as a string, never as live spec state.  *parent_pid*
    is the submitting process's pid, captured at wrap time, so ``kill``
    can tell a pool worker (hard ``os._exit``, breaking the pool) from
    in-process serial execution (degraded to a transient raise -- an
    actual exit would kill the campaign, not a worker).
    """
    if fault == "raise":
        raise ChaosTransientError(
            f"chaos: injected transient fault ({key}, attempt {attempt})"
        )
    if fault == "fatal":
        raise ChaosFatalError(
            f"chaos: injected fatal fault ({key}, attempt {attempt})"
        )
    if fault == "hang":
        time.sleep(hang_s)
    elif fault == "kill":
        if os.getpid() != parent_pid:
            # In a pool worker: die without cleanup, like a real worker
            # crash -- the parent sees BrokenProcessPool.
            os._exit(17)
        raise ChaosTransientError(
            f"chaos: 'kill' under serial execution degraded to a "
            f"transient raise ({key}, attempt {attempt})"
        )
    return fn(*args, **kwargs)
