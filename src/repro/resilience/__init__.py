"""Software error-detection and selective-hardening mechanisms.

Design implication #4 of the paper: SDCs at low voltage come from
*unprotected* paths, so architects should "locate soft errors in those
circuit paths causing SDCs ... add new protection mechanisms".  This
subpackage implements the standard software-side answers and evaluates
their coverage against the library's own fault injector:

* :mod:`repro.resilience.abft` -- algorithm-based fault tolerance:
  checksum-carrying matrix kernels that detect (and for single faults,
  locate) data corruption at O(n) extra work.
* :mod:`repro.resilience.redundancy` -- dual- and triple-modular
  redundant execution wrappers over any workload.
* :mod:`repro.resilience.selective` -- budgeted selective hardening:
  choose which core structures to protect for the best SDC-FIT
  reduction per unit cost (Wu & Marculescu [81]'s knapsack).
* :mod:`repro.resilience.evaluation` -- fault-injection coverage
  measurement for any detector.
"""

from .abft import AbftReport, abft_matvec, checksum_augment
from .redundancy import DmrResult, dmr_run, tmr_run
from .selective import HardeningChoice, HardeningOption, select_hardening
from .evaluation import CoverageReport, measure_detector_coverage

__all__ = [
    "AbftReport",
    "abft_matvec",
    "checksum_augment",
    "DmrResult",
    "dmr_run",
    "tmr_run",
    "HardeningChoice",
    "HardeningOption",
    "select_hardening",
    "CoverageReport",
    "measure_detector_coverage",
]
