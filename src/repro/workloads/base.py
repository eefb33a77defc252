"""Workload interface and golden-reference machinery.

A workload is a deterministic computation with

* an input state built from a seed (so every run of the same class is
  bit-identical),
* a set of *live data arrays* that the direct fault injector may flip
  bits in (:mod:`repro.injection.direct`),
* a verification value, and
* a golden reference computed in fault-free conditions, exactly like
  the pre-computed expected outputs the Control-PC compared against
  (Section 3.6).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import WorkloadError


@dataclass(frozen=True)
class WorkloadResult:
    """Outcome of one workload execution.

    Attributes
    ----------
    name:
        Workload name ("CG", "EP", ...).
    verification:
        The kernel's numeric verification vector.
    iterations:
        Number of main-loop iterations executed.
    """

    name: str
    verification: np.ndarray
    iterations: int

    def matches(self, other: "WorkloadResult", rtol: float = 1e-10) -> bool:
        """Golden comparison: do two runs agree within *rtol*?"""
        if self.name != other.name:
            return False
        if self.verification.shape != other.verification.shape:
            return False
        return bool(
            np.allclose(
                self.verification, other.verification, rtol=rtol, atol=0.0
            )
        )


class Workload(abc.ABC):
    """Base class for the six NPB-style kernels.

    Subclasses implement :meth:`_build_state` and :meth:`_compute`;
    the base class provides golden-reference computation and caching.

    Parameters
    ----------
    scale:
        Linear problem-size scale (1.0 = the library's "class A"
        stand-in sizing; tests use smaller scales for speed).
    seed:
        Input-generation seed.  Fixed per experiment so reruns are
        bit-identical.
    """

    #: Workload name, e.g. "CG".  Set by subclasses.
    name: str = "?"

    def __init__(self, scale: float = 1.0, seed: int = 1234) -> None:
        if scale <= 0:
            raise WorkloadError("scale must be positive")
        self.scale = float(scale)
        self.seed = int(seed)
        self._golden: WorkloadResult = None

    # -- subclass interface -----------------------------------------------------

    @abc.abstractmethod
    def _build_state(self) -> Dict[str, np.ndarray]:
        """Construct the kernel's input/working arrays from the seed."""

    @abc.abstractmethod
    def _compute(self, state: Dict[str, np.ndarray]) -> WorkloadResult:
        """Run the kernel over *state* and return its verification."""

    # -- public API ----------------------------------------------------------------

    def build_state(self) -> Dict[str, np.ndarray]:
        """Fresh input state for one execution."""
        return self._build_state()

    def run(self, state: Dict[str, np.ndarray] = None) -> WorkloadResult:
        """Execute the kernel (building fresh state unless provided)."""
        if state is None:
            state = self._build_state()
        return self._compute(state)

    def golden(self) -> WorkloadResult:
        """The fault-free reference output (computed once, cached)."""
        if self._golden is None:
            self._golden = self.run()
            if not np.all(np.isfinite(self._golden.verification)):
                raise WorkloadError(
                    f"{self.name}: golden verification is not finite"
                )
        return self._golden

    def verify(self, result: WorkloadResult, rtol: float = 1e-10) -> bool:
        """Does *result* match the golden reference?"""
        return self.golden().matches(result, rtol=rtol)

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(scale={self.scale}, seed={self.seed})"
