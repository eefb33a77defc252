"""NAS-Parallel-Benchmark-style workloads (class A scaled for simulation).

Six real kernels mirror the six NPB programs the paper runs (Section
3.3): CG (conjugate gradient), EP (embarrassingly parallel), FT (3-D FFT
PDE), IS (integer sort), LU (regular-sparse lower-upper solve), and MG
(multigrid).  Every kernel produces a deterministic verification value;
silent data corruptions are detected exactly as in the beam campaign --
by comparing the output against a fault-free golden reference.

:mod:`repro.workloads.profiles` carries the per-benchmark calibration
data (cache occupancy, detection efficiency, activity) that couples the
kernels to the injection model.
"""

from .base import Workload, WorkloadResult
from .cg import CgWorkload
from .ep import EpWorkload
from .ft import FtWorkload
from .is_ import IsWorkload
from .lu import LuWorkload
from .mg import MgWorkload
from .profiles import WorkloadProfile, PROFILES, benchmark_rate_share
from .suite import SUITE_NAMES, make_suite, make_workload

__all__ = [
    "Workload",
    "WorkloadResult",
    "CgWorkload",
    "EpWorkload",
    "FtWorkload",
    "IsWorkload",
    "LuWorkload",
    "MgWorkload",
    "WorkloadProfile",
    "PROFILES",
    "benchmark_rate_share",
    "SUITE_NAMES",
    "make_suite",
    "make_workload",
]
