"""Chip power model, calibrated against the paper's measurements.

The familiar decomposition P = alpha*C*V^2*f + P_static (Section 1,
citing [76]) is applied per domain:

    P(Vp, Vs, f) = a_pmd * Vp^2 * f + a_soc * Vs^2 + p_static

with Vp/Vs in volts and f in GHz.  The SoC domain's clock is fixed, so
its dynamic term has no frequency factor.  The three coefficients are
least-squares fit to the four measured averages of Fig. 9:

    (980 mV, 950 mV, 2.4 GHz) -> 20.40 W
    (930 mV, 925 mV, 2.4 GHz) -> 18.63 W
    (920 mV, 920 mV, 2.4 GHz) -> 18.15 W
    (790 mV, 950 mV, 0.9 GHz) -> 10.59 W

Per-benchmark variation is expressed with an activity factor that scales
the PMD dynamic term (EP, being compute-bound, runs hotter than the
memory-bound IS, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..constants import NUM_CORES
from ..errors import ConfigurationError
from ..units import mv_to_volts

#: The paper's measured (pmd_mV, soc_mV, freq_MHz) -> watts averages (Fig. 9).
PAPER_POWER_POINTS: List[Tuple[int, int, int, float]] = [
    (980, 950, 2400, 20.40),
    (930, 925, 2400, 18.63),
    (920, 920, 2400, 18.15),
    (790, 950, 900, 10.59),
]


@dataclass(frozen=True)
class PowerModel:
    """Two-domain quadratic-voltage power model.

    Attributes
    ----------
    a_pmd:
        PMD dynamic coefficient, W / (V^2 * GHz).
    a_soc:
        SoC dynamic coefficient, W / V^2 (fixed SoC clock folded in).
    p_static:
        Voltage-independent residual power, W.
    """

    a_pmd: float
    a_soc: float
    p_static: float

    def total_watts(
        self,
        pmd_mv: float,
        soc_mv: float,
        freq_mhz: float,
        activity: float = 1.0,
    ) -> float:
        """Chip power at an operating point.

        Parameters
        ----------
        pmd_mv / soc_mv:
            Domain voltages, millivolts.
        freq_mhz:
            Core clock, MHz.
        activity:
            Workload activity factor scaling the PMD dynamic term
            (1.0 = the Fig. 9 benchmark average).
        """
        if min(pmd_mv, soc_mv, freq_mhz) <= 0:
            raise ConfigurationError("voltages and frequency must be positive")
        if activity <= 0:
            raise ConfigurationError("activity factor must be positive")
        vp = mv_to_volts(pmd_mv)
        vs = mv_to_volts(soc_mv)
        f_ghz = freq_mhz / 1000.0
        return (
            self.a_pmd * activity * vp * vp * f_ghz
            + self.a_soc * vs * vs
            + self.p_static
        )

    @classmethod
    def calibrated(cls) -> "PowerModel":
        """Least-squares fit to the paper's four measured power points."""
        rows = []
        targets = []
        for pmd_mv, soc_mv, freq_mhz, watts in PAPER_POWER_POINTS:
            vp = mv_to_volts(pmd_mv)
            vs = mv_to_volts(soc_mv)
            f_ghz = freq_mhz / 1000.0
            rows.append([vp * vp * f_ghz, vs * vs, 1.0])
            targets.append(watts)
        coeffs, *_ = np.linalg.lstsq(
            np.asarray(rows), np.asarray(targets), rcond=None
        )
        a_pmd, a_soc, p_static = (float(c) for c in coeffs)
        return cls(a_pmd=a_pmd, a_soc=a_soc, p_static=p_static)

    @classmethod
    def for_node(cls, node) -> "PowerModel":
        """The calibrated model scaled to a technology node.

        The PMD dynamic coefficient scales with per-core switched
        capacitance and the core count, the SoC coefficient with
        capacitance alone (one shared L3), and the static residual with
        the node's leakage factor.  The default 28 nm anchor returns
        the paper fit unchanged.
        """
        base = cls.calibrated()
        if node is None or getattr(node, "is_default", False):
            return base
        cores = node.num_cores / float(NUM_CORES)
        return cls(
            a_pmd=base.a_pmd * node.cap_scale * cores,
            a_soc=base.a_soc * node.cap_scale,
            p_static=base.p_static * node.leakage_scale,
        )


#: Representative per-benchmark activity factors for the PMD dynamic term.
#: Compute-bound kernels (EP, LU) dissipate more core power than
#: memory-bound ones (IS, CG); values bracket ~±6 % around the average.
BENCHMARK_ACTIVITY: Dict[str, float] = {
    "CG": 0.96,
    "EP": 1.06,
    "FT": 1.02,
    "IS": 0.94,
    "LU": 1.05,
    "MG": 0.97,
}
