"""Suite registry: the study's six benchmarks."""

from __future__ import annotations

from typing import Dict, List, Type

from ..errors import WorkloadError
from .base import Workload
from .cg import CgWorkload
from .ep import EpWorkload
from .ft import FtWorkload
from .is_ import IsWorkload
from .lu import LuWorkload
from .mg import MgWorkload

#: The six NPB programs used in the paper, in Fig. 5's order.
SUITE_NAMES: List[str] = ["CG", "LU", "FT", "EP", "MG", "IS"]

_CLASSES: Dict[str, Type[Workload]] = {
    "CG": CgWorkload,
    "EP": EpWorkload,
    "FT": FtWorkload,
    "IS": IsWorkload,
    "LU": LuWorkload,
    "MG": MgWorkload,
}


def make_workload(name: str, scale: float = 1.0, seed: int = 1234) -> Workload:
    """Instantiate one benchmark of the paper's suite by name."""
    if name not in _CLASSES:
        raise WorkloadError(
            f"unknown benchmark {name!r}; expected one of {SUITE_NAMES}"
        )
    return _CLASSES[name](scale=scale, seed=seed)


def make_suite(scale: float = 1.0, seed: int = 1234) -> Dict[str, Workload]:
    """Instantiate the paper's six-benchmark suite."""
    return {name: make_workload(name, scale, seed) for name in SUITE_NAMES}

