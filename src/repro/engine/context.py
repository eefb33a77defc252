"""Execution context: the seed/time-scale/flux bundle shared by all runners.

Before the engine existed, every runner (campaign, ensemble, vmin,
microarch FI) accepted its own loose ``seed``/``time_scale`` pair and
derived streams its own way.  :class:`ExecutionContext` is the single
carrier for that state: it is immutable, picklable (so it can ride
inside a :class:`~repro.engine.executor.WorkUnit` to another process),
and derives child seeds/streams with the same stable hashing used by
:class:`~repro.rng.RngStreams`, so the same ``(seed, name, qualifiers)``
triple always yields the same stream no matter which process asks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import EngineError
from ..rng import RngStreams
from ..telemetry import Telemetry


@dataclass(frozen=True, eq=False)
class ExecutionContext:
    """Immutable bundle of everything a deterministic run depends on.

    Attributes
    ----------
    seed:
        Root seed; every stochastic draw of the run derives from it.
    time_scale:
        Fraction of nominal beam/run time (1.0 = full length).
    flux_per_cm2_s:
        Optional campaign-wide beam-flux override; ``None`` keeps each
        plan's own flux.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` sink runners
        record metrics and spans into.  It lives only on the submitting
        side; work units ship registry *snapshots* back instead.
    """

    seed: int = 2023
    time_scale: float = 1.0
    flux_per_cm2_s: Optional[float] = None
    telemetry: Optional[Telemetry] = None

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise EngineError("time scale must be positive")
        if self.flux_per_cm2_s is not None and self.flux_per_cm2_s < 0:
            raise EngineError("flux override must be nonnegative")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def streams(self) -> RngStreams:
        """A root stream factory for this context's seed."""
        return RngStreams(self.seed)

    def child(self, name: str, **qualifiers: object) -> np.random.Generator:
        """A named child generator (see :meth:`RngStreams.child`)."""
        return self.streams.child(name, **qualifiers)

    def derive_seed(self, name: str, **qualifiers: object) -> int:
        """A stable derived integer seed for a named work unit.

        Work units crossing a process boundary carry a plain integer
        seed rather than a generator, so the receiving process can
        rebuild identical streams.  The derivation hashes the same
        ``(seed, name, qualifiers)`` key as :meth:`child`, so distinct
        units get independent seeds and repeated calls agree.
        """
        key = (self.seed, name) + tuple(
            sorted((k, repr(v)) for k, v in qualifiers.items())
        )
        digest = hashlib.md5(repr(key).encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")

    def __repr__(self) -> str:
        return (
            f"ExecutionContext(seed={self.seed}, "
            f"time_scale={self.time_scale}, "
            f"flux_per_cm2_s={self.flux_per_cm2_s})"
        )
