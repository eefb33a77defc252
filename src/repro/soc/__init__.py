"""Structural model of the X-Gene 2 server microprocessor.

Models the platform exactly as described in Section 3.1 / Table 1 of the
paper: 8 Armv8 cores in 4 dual-core pairs, private parity-protected L1
caches and TLBs, SECDED-protected per-pair L2 and shared 8 MB L3,
independently regulated PMD and SoC voltage domains, per-pair frequency
control, a SLIMpro-style management processor, an EDAC event log, and a
calibrated power model.
"""

from .regulator import (
    LoadProfile,
    PowerDeliveryNetwork,
    droop_penalty_mv,
    guardband_consumed_mv,
)
from .geometry import CacheLevel, StructureSpec, xgene2_structures
from .domains import VoltageDomain, DomainName
from .dvfs import DvfsController, OperatingPoint
from .edac import EdacLog, EdacRecord, EdacSeverity
from .power import PowerModel
from .slimpro import SlimPro
from .xgene2 import XGene2

__all__ = [
    "LoadProfile",
    "PowerDeliveryNetwork",
    "droop_penalty_mv",
    "guardband_consumed_mv",
    "CacheLevel",
    "StructureSpec",
    "xgene2_structures",
    "VoltageDomain",
    "DomainName",
    "DvfsController",
    "OperatingPoint",
    "EdacLog",
    "EdacRecord",
    "EdacSeverity",
    "PowerModel",
    "SlimPro",
    "XGene2",
]
