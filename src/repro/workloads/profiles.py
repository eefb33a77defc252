"""Per-benchmark calibration profiles.

The beam sees the same chip regardless of workload; what differs across
benchmarks is *how much of the upset population becomes visible*: how
much cache each benchmark occupies, how often it re-reads cached data
before overwriting it (an upset in a word that is overwritten first is
never detected), and how likely a corrupted live value is to reach the
output (the AVF).  Section 3.5 uses exactly this argument to explain
why the measured SER (2.08-2.45 FIT/Mbit) is below the static-test
reference of 15 FIT/Mbit.

The measured per-benchmark upset rates of Fig. 5 are the calibration
anchor: :func:`benchmark_rate_share` converts them into a per-benchmark
share of the chip-level rate at any PMD voltage by interpolating the
measured shares in undervolt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import ConfigurationError

#: Fig. 5 measured upsets/minute, per benchmark and PMD voltage (2.4 GHz).
FIG5_UPSET_RATES: Dict[str, Dict[int, float]] = {
    "CG": {980: 0.87, 930: 0.84, 920: 0.58},
    "LU": {980: 1.15, 930: 1.09, 920: 1.03},
    "FT": {980: 1.11, 930: 1.21, 920: 1.37},
    "EP": {980: 1.03, 930: 1.22, 920: 1.17},
    "MG": {980: 0.94, 930: 1.02, 920: 1.32},
    "IS": {980: 1.03, 930: 1.11, 920: 1.28},
}

#: Fig. 5 / Fig. 9 total (all-benchmark) upsets/minute per setting.
FIG5_TOTAL_RATES: Dict[int, float] = {980: 1.01, 930: 1.08, 920: 1.12}

#: Fig. 9's fourth setting: 790 mV @ 900 MHz.
FIG9_790MV_TOTAL_RATE = 1.18


@dataclass(frozen=True)
class WorkloadProfile:
    """Static calibration data for one benchmark.

    Attributes
    ----------
    name:
        Benchmark name ("CG", ...).
    occupancy:
        Fraction of each cache level's capacity holding live data,
        keyed by level name ("TLBs", "L1 Cache", "L2 Cache", "L3 Cache").
    read_recurrence:
        Probability that an upset landing in occupied memory is read
        (and hence detected/logged) before being overwritten.
    avf_sdc:
        Probability that corrupted live data propagates to the output
        (the benchmark's architectural vulnerability to SDC).
    activity:
        PMD power activity factor (see :mod:`repro.soc.power`).
    runtime_s:
        Fault-free execution time on the platform (< 5 s by the class-A
        design constraint of Section 3.3).
    """

    name: str
    occupancy: Dict[str, float]
    read_recurrence: float
    avf_sdc: float
    activity: float
    runtime_s: float

    def __post_init__(self) -> None:
        for level, frac in self.occupancy.items():
            if not 0 <= frac <= 1:
                raise ConfigurationError(
                    f"{self.name}: occupancy[{level}] must be in [0, 1]"
                )
        if not 0 <= self.read_recurrence <= 1:
            raise ConfigurationError("read recurrence must be in [0, 1]")
        if not 0 <= self.avf_sdc <= 1:
            raise ConfigurationError("AVF must be in [0, 1]")
        if self.runtime_s <= 0 or self.runtime_s >= 5.0:
            raise ConfigurationError(
                "class-A runtimes must be positive and under 5 s "
                "(Section 3.3's anti-accumulation constraint)"
            )

    def detection_efficiency(self, level: str) -> float:
        """Fraction of raw upsets at *level* this benchmark surfaces."""
        return self.occupancy.get(level, 0.0) * self.read_recurrence


#: Representative memory-behaviour profiles for the six kernels.
#: Occupancy reflects each kernel's working set against the cache sizes;
#: recurrence reflects streaming (FT) vs reuse-heavy (CG) access.
PROFILES: Dict[str, WorkloadProfile] = {
    "CG": WorkloadProfile(
        name="CG",
        occupancy={"TLBs": 0.65, "L1 Cache": 0.85, "L2 Cache": 0.80, "L3 Cache": 0.55},
        read_recurrence=0.72,
        avf_sdc=0.32,
        activity=0.96,
        runtime_s=2.6,
    ),
    "EP": WorkloadProfile(
        name="EP",
        occupancy={"TLBs": 0.40, "L1 Cache": 0.70, "L2 Cache": 0.45, "L3 Cache": 0.30},
        read_recurrence=0.55,
        avf_sdc=0.18,
        activity=1.06,
        runtime_s=3.1,
    ),
    "FT": WorkloadProfile(
        name="FT",
        occupancy={"TLBs": 0.75, "L1 Cache": 0.90, "L2 Cache": 0.95, "L3 Cache": 0.85},
        read_recurrence=0.60,
        avf_sdc=0.40,
        activity=1.02,
        runtime_s=3.8,
    ),
    "IS": WorkloadProfile(
        name="IS",
        occupancy={"TLBs": 0.80, "L1 Cache": 0.75, "L2 Cache": 0.85, "L3 Cache": 0.70},
        read_recurrence=0.58,
        avf_sdc=0.25,
        activity=0.94,
        runtime_s=1.9,
    ),
    "LU": WorkloadProfile(
        name="LU",
        occupancy={"TLBs": 0.70, "L1 Cache": 0.88, "L2 Cache": 0.90, "L3 Cache": 0.75},
        read_recurrence=0.68,
        avf_sdc=0.35,
        activity=1.05,
        runtime_s=4.2,
    ),
    "MG": WorkloadProfile(
        name="MG",
        occupancy={"TLBs": 0.72, "L1 Cache": 0.82, "L2 Cache": 0.88, "L3 Cache": 0.80},
        read_recurrence=0.62,
        avf_sdc=0.37,
        activity=0.97,
        runtime_s=3.4,
    ),
}


def benchmark_rate_share(name: str, pmd_mv: int) -> float:
    """This benchmark's share of the chip-level detected upset rate.

    Interpolates the Fig. 5 measured shares (benchmark rate / total
    rate) linearly in PMD voltage; outside the measured 920-980 mV
    range the nearest measured share is used.  Shares are normalized so
    the six benchmarks average to 1 (the "Total" bar of Fig. 5 is the
    time-normalized all-benchmark rate).

    Parameters
    ----------
    name:
        Benchmark name.
    pmd_mv:
        PMD voltage of the operating point.
    """
    if name not in FIG5_UPSET_RATES:
        raise ConfigurationError(f"unknown benchmark {name!r}")
    voltages = sorted(FIG5_TOTAL_RATES)  # [920, 930, 980]
    shares = [
        FIG5_UPSET_RATES[name][v] / FIG5_TOTAL_RATES[v] for v in voltages
    ]
    return float(np.interp(pmd_mv, voltages, shares))


def mean_runtime_s() -> float:
    """Average fault-free runtime across the suite."""
    return float(np.mean([p.runtime_s for p in PROFILES.values()]))
