"""Whole-chip assembly of the X-Gene 2 model.

Wires together the structure inventory (:mod:`repro.soc.geometry`), the
voltage domains, the DVFS controller, the EDAC log, the power model and
the SLIMpro facade into a single object the beam/injection layers and
the test harness operate on.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from .. import constants
from ..errors import ConfigurationError
from ..sram.array import SramArray
from .domains import (
    make_pmd_domain,
    make_soc_domain,
    make_standby_domain,
)
from .dvfs import DvfsController, OperatingPoint
from .edac import EdacLog
from .geometry import CacheLevel, StructureSpec, xgene2_structures
from .power import PowerModel
from .slimpro import SlimPro


class XGene2:
    """The 8-core X-Gene 2 chip model.

    Parameters
    ----------
    power_model:
        Power model; defaults to the paper-calibrated fit (scaled to
        the technology node when one is given).
    structures:
        Structure inventory override (tests use reduced inventories);
        defaults to the full Table 1 expansion.
    tech_node:
        Optional :class:`~repro.tech.TechNode`-shaped object.  When
        given (and not the default 28 nm anchor), the domains come up
        at the node's nominals/floor and the DVFS controller validates
        against the node's PLL grid.  The default node -- or ``None``
        -- builds the paper's chip exactly.
    """

    def __init__(
        self,
        power_model: PowerModel = None,
        structures: List[StructureSpec] = None,
        tech_node=None,
    ) -> None:
        node = tech_node
        if node is not None and getattr(node, "is_default", False):
            node = None
        self.tech_node = node
        if node is None:
            self.pmd = make_pmd_domain()
            self.soc = make_soc_domain()
            self.standby = make_standby_domain()
            self.dvfs = DvfsController(self.pmd, self.soc)
        else:
            self.pmd = make_pmd_domain(
                node.pmd_nominal_mv, floor_mv=node.floor_mv
            )
            self.soc = make_soc_domain(
                node.soc_nominal_mv, floor_mv=node.floor_mv
            )
            self.standby = make_standby_domain(node.soc_nominal_mv)
            self.dvfs = DvfsController(
                self.pmd,
                self.soc,
                freq_min_mhz=node.freq_step_mhz,
                freq_max_mhz=node.nominal_freq_mhz,
                freq_step_mhz=node.freq_step_mhz,
            )
        self.edac = EdacLog()
        if power_model is not None:
            self.power_model = power_model
        elif node is not None:
            self.power_model = PowerModel.for_node(node)
        else:
            self.power_model = PowerModel.calibrated()
        self.slimpro = SlimPro(self.edac)

        if structures is not None:
            specs = structures
        elif node is not None:
            specs = xgene2_structures(num_cores=node.num_cores)
        else:
            specs = xgene2_structures()
        self._specs: Dict[str, StructureSpec] = {}
        self._arrays: Dict[str, SramArray] = {}
        for spec in specs:
            if spec.name in self._arrays:
                raise ConfigurationError(f"duplicate structure {spec.name!r}")
            self._specs[spec.name] = spec
            self._arrays[spec.name] = SramArray(
                geometry=spec.make_geometry(),
                codec=spec.make_codec(),
                domain=spec.domain,
            )

    # -- structure access ---------------------------------------------------------

    def arrays(self) -> Iterator[SramArray]:
        """Iterate over every SRAM array on the chip."""
        return iter(self._arrays.values())

    def array(self, name: str) -> SramArray:
        """Look one array up by instance name."""
        if name not in self._arrays:
            raise ConfigurationError(f"no such structure: {name!r}")
        return self._arrays[name]

    def spec(self, name: str) -> StructureSpec:
        """Look one structure spec up by instance name."""
        if name not in self._specs:
            raise ConfigurationError(f"no such structure: {name!r}")
        return self._specs[name]

    def specs(self) -> List[StructureSpec]:
        """All structure specs on the chip."""
        return list(self._specs.values())

    def arrays_by_level(self, level: CacheLevel) -> List[SramArray]:
        """All arrays reported at one cache level."""
        return [
            self._arrays[name]
            for name, spec in self._specs.items()
            if spec.level == level
        ]

    # -- capacity -------------------------------------------------------------------

    @property
    def sram_data_bits(self) -> int:
        """Total protected data bits over all arrays."""
        return sum(spec.capacity_bits for spec in self._specs.values())

    # -- electrical state ------------------------------------------------------------

    def apply_operating_point(self, point: OperatingPoint) -> None:
        """Pin the chip to an explicit setting."""
        self.dvfs.apply(point)

    def operating_point(self) -> OperatingPoint:
        """Snapshot the chip's present setting."""
        return self.dvfs.current_point()

    # -- lifecycle --------------------------------------------------------------------

    def power_cycle(self) -> None:
        """Model a power cycle: all SRAM state and logs are lost."""
        for array in self._arrays.values():
            array.clear()
        self.edac.clear()
        self.slimpro.reset_health_cursor()

    def __repr__(self) -> str:
        point = self.operating_point()
        cores = (
            self.tech_node.num_cores
            if self.tech_node is not None
            else constants.NUM_CORES
        )
        return (
            f"XGene2({cores} cores, "
            f"{len(self._arrays)} SRAM arrays, "
            f"{self.sram_data_bits // (8 * 1024 * 1024)} MiB SRAM, {point})"
        )
