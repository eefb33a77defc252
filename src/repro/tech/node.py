"""The :class:`TechNode` model family: one silicon point, parameterized.

The paper characterizes exactly one part -- a 28 nm X-Gene 2 -- but its
core contribution (sigma(V) susceptibility scaling under undervolting)
generalizes to any process node once the node-specific quantities are
parameterized:

* **Supply and threshold voltages.**  Each node carries its own PMD/SoC
  nominal supplies and a threshold voltage ``Vth``; every undervolt
  fraction in the rate models is taken against the *node's* nominal.
* **Frequency.**  ``f(V)`` follows the alpha-power law with velocity
  saturation above the near-threshold band and an exponential
  subthreshold characteristic below it (the lumos formulation):

      f_super(V) = c_super * (V - Vth)^alpha / V          V >  Vpivot
      f_sub(V)   = c_sub   * 10^((V - Vth)/Vslope) / V    V <= Vpivot

  with ``Vpivot = Vth + Vnth``.  ``c_super`` is normalized so the model
  reproduces the node's nominal frequency at its nominal supply, and
  ``c_sub`` is chosen to make the two branches continuous at the pivot.
* **Capacitance / leakage / cross-section scaling.**  Plain
  multiplicative factors relative to the 28 nm reference, applied by the
  ``for_node`` constructors of the power, cross-section and rate models.

The 28 nm X-Gene 2 itself is ``TechNode("xgene2-28")`` -- the registry
default -- with every scale factor at exactly 1.0.  The default node is
*inert by construction*: models asked to scale for it return their
paper-calibrated selves unchanged, which is what keeps default-node
campaign output byte-identical and is pinned by the ``tech_anchor``
differential pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import constants
from ..errors import TechError
from ..soc.dvfs import OperatingPoint

#: Name of the paper's own silicon: the 28 nm X-Gene 2 reference node.
DEFAULT_NODE = "xgene2-28"

#: Reference-node electrical anchors (the paper's part, Section 3.1).
_REF_PMD_NOMINAL_MV = float(constants.PMD_NOMINAL_MV)
_REF_SOC_NOMINAL_MV = float(constants.SOC_NOMINAL_MV)
_REF_FREQ_MHZ = float(constants.FREQ_MAX_MHZ)
_REF_NUM_CORES = constants.NUM_CORES


def _snap_to_grid(scaled: float, nominal: int, step: int, floor: int) -> int:
    """Snap a scaled voltage onto the regulator grid below *nominal*.

    The grid is anchored at the nominal (regulators scale *downwards*
    in ``step`` mV increments), so the snapped value always satisfies
    ``(nominal - mv) % step == 0`` and ``floor <= mv <= nominal``.
    """
    steps = int(round((nominal - scaled) / step))
    mv = nominal - steps * step
    return max(floor, min(nominal, mv))


@dataclass(frozen=True)
class TechNode:
    """One technology node: electrical anchors plus scale factors.

    Attributes
    ----------
    name:
        Registry key ("xgene2-28", "7nm", ...).
    process_nm:
        Feature size, nanometres.
    pmd_nominal_mv / soc_nominal_mv:
        Nominal (maximum) domain supplies at this node, millivolts.
    vth_mv:
        Threshold voltage, millivolts.
    nominal_freq_mhz:
        Clock at the nominal PMD supply; the model's normalization
        point (``freq_mhz_at(pmd_nominal_mv) == nominal_freq_mhz``).
    freq_step_mhz:
        PLL grid granularity for this node's DVFS controller.
    floor_mv:
        Regulator floor; kept above the sub/super-threshold pivot so
        every reachable voltage stays in the modelled region.
    alpha:
        Velocity-saturation exponent of the alpha-power law.
    vslope_mv:
        Subthreshold swing of the exponential branch (mV/decade).
    nth_mv:
        Width of the near-threshold band: the sub/super pivot sits at
        ``vth_mv + nth_mv``.
    cap_scale / leakage_scale:
        Per-core switched capacitance and static leakage relative to
        the 28 nm reference.
    sigma0_scale:
        Per-bit nominal-voltage SEU cross-section relative to 28 nm.
    slope_scale:
        Multiplier on every calibrated voltage-sensitivity slope
        (smaller margins => steeper sigma(V)).
    num_cores:
        Core count of the part built at this node (must be even: the
        X-Gene topology groups cores in dual-core PMD pairs).
    description:
        One-line provenance note for listings.
    """

    name: str
    process_nm: int
    pmd_nominal_mv: int
    soc_nominal_mv: int
    vth_mv: float
    nominal_freq_mhz: int
    freq_step_mhz: int = 300
    floor_mv: int = 500
    alpha: float = 1.4
    vslope_mv: float = 90.0
    nth_mv: float = 200.0
    cap_scale: float = 1.0
    leakage_scale: float = 1.0
    sigma0_scale: float = 1.0
    slope_scale: float = 1.0
    num_cores: int = _REF_NUM_CORES
    description: str = ""

    def __post_init__(self) -> None:
        if (
            not self.name
            or "/" in self.name
            or any(ch.isspace() for ch in self.name)
        ):
            raise TechError(f"invalid node name {self.name!r}")
        if self.process_nm <= 0:
            raise TechError("process feature size must be positive")
        if self.pmd_nominal_mv <= 0 or self.soc_nominal_mv <= 0:
            raise TechError("nominal voltages must be positive")
        if self.vth_mv <= 0:
            raise TechError("threshold voltage must be positive")
        if self.nth_mv <= 0 or self.vslope_mv <= 0:
            raise TechError("near-threshold band and swing must be positive")
        if self.alpha <= 1.0:
            raise TechError(
                "alpha must exceed 1 (monotonic super-threshold f(V))"
            )
        if self.pivot_mv >= self.pmd_nominal_mv:
            raise TechError(
                f"{self.name}: nominal {self.pmd_nominal_mv} mV must sit "
                f"above the sub/super-threshold pivot {self.pivot_mv} mV"
            )
        if not self.pivot_mv <= self.floor_mv <= self.pmd_nominal_mv:
            raise TechError(
                f"{self.name}: regulator floor {self.floor_mv} mV must lie "
                f"in [{self.pivot_mv}, {self.pmd_nominal_mv}] mV"
            )
        if self.nominal_freq_mhz <= 0 or self.freq_step_mhz <= 0:
            raise TechError("frequencies must be positive")
        if self.nominal_freq_mhz % self.freq_step_mhz:
            raise TechError(
                f"{self.name}: nominal {self.nominal_freq_mhz} MHz is not "
                f"on its own {self.freq_step_mhz} MHz grid"
            )
        for label, scale in (
            ("capacitance", self.cap_scale),
            ("leakage", self.leakage_scale),
            ("sigma0", self.sigma0_scale),
            ("slope", self.slope_scale),
        ):
            if scale <= 0:
                raise TechError(f"{label} scale must be positive")
        if self.num_cores < 2 or self.num_cores % 2:
            raise TechError("core count must be even and >= 2")

    # -- identity -----------------------------------------------------------------

    @property
    def is_default(self) -> bool:
        """Whether this is the paper's own 28 nm X-Gene 2 anchor."""
        return self.name == DEFAULT_NODE

    # -- frequency model ----------------------------------------------------------

    @property
    def pivot_mv(self) -> float:
        """Sub/super-threshold crossover voltage, millivolts."""
        return self.vth_mv + self.nth_mv

    def freq_mhz_at(self, pmd_mv: float) -> float:
        """Model clock (MHz) at a PMD supply, alpha-power with crossover.

        Continuous at the pivot by construction and normalized so the
        nominal supply yields exactly ``nominal_freq_mhz``.
        """
        v = pmd_mv / 1000.0
        vth = self.vth_mv / 1000.0
        if v <= vth:
            raise TechError(
                f"{self.name}: {pmd_mv} mV is at or below the "
                f"{self.vth_mv} mV threshold"
            )
        v0 = self.pmd_nominal_mv / 1000.0
        vpivot = self.pivot_mv / 1000.0
        vslope = self.vslope_mv / 1000.0
        csuper = self.nominal_freq_mhz * v0 / (v0 - vth) ** self.alpha
        if v > vpivot:
            return csuper * (v - vth) ** self.alpha / v
        csub = (
            csuper
            * (vpivot - vth) ** self.alpha
            / 10.0 ** ((vpivot - vth) / vslope)
        )
        return csub * 10.0 ** ((v - vth) / vslope) / v

    # -- cross-node scaling -------------------------------------------------------

    def scale_pmd_mv(self, reference_mv: float) -> int:
        """Map a 28 nm PMD voltage onto this node's regulator grid."""
        scaled = reference_mv * self.pmd_nominal_mv / _REF_PMD_NOMINAL_MV
        return _snap_to_grid(
            scaled,
            self.pmd_nominal_mv,
            constants.VOLTAGE_STEP_MV,
            self.floor_mv,
        )

    def scale_soc_mv(self, reference_mv: float) -> int:
        """Map a 28 nm SoC voltage onto this node's regulator grid."""
        scaled = reference_mv * self.soc_nominal_mv / _REF_SOC_NOMINAL_MV
        return _snap_to_grid(
            scaled,
            self.soc_nominal_mv,
            constants.VOLTAGE_STEP_MV,
            self.floor_mv,
        )

    def scale_freq_mhz(self, reference_mhz: float) -> int:
        """Map a 28 nm clock onto this node's PLL grid."""
        scaled = reference_mhz * self.nominal_freq_mhz / _REF_FREQ_MHZ
        step = self.freq_step_mhz
        mhz = int(round(scaled / step)) * step
        return max(step, min(self.nominal_freq_mhz, mhz))

    def scaled_point(self, point: OperatingPoint) -> OperatingPoint:
        """Translate a Table 3 operating point to this node.

        The default node returns the point *unchanged* (same object):
        the byte-identity guarantee of the 28 nm anchor.
        """
        if self.is_default:
            return point
        return OperatingPoint(
            label=point.label,
            freq_mhz=self.scale_freq_mhz(point.freq_mhz),
            pmd_mv=self.scale_pmd_mv(point.pmd_mv),
            soc_mv=self.scale_soc_mv(point.soc_mv),
        )

    def rate_scale(self, domain: str) -> float:
        """Upset-rate multiplier vs. 28 nm for one voltage domain.

        PMD-side structures replicate per core, so their aggregate rate
        scales with both the per-bit cross-section and the core count;
        the shared SoC L3 scales with the cross-section alone.
        """
        if domain == "pmd":
            return self.sigma0_scale * (self.num_cores / _REF_NUM_CORES)
        if domain == "soc":
            return self.sigma0_scale
        raise TechError(f"unknown voltage domain {domain!r}")

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.process_nm} nm, {self.num_cores} cores, "
            f"PMD {self.pmd_nominal_mv} mV, SoC {self.soc_nominal_mv} mV, "
            f"{self.nominal_freq_mhz} MHz"
        )
