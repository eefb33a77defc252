"""SRAM soft-error physics substrate.

This subpackage models everything between an incident neutron and a
logged bit upset in an on-chip SRAM array:

* :mod:`repro.sram.cross_section` -- per-bit SEU cross-section as a
  function of voltage, calibrated against the paper's measured rates.
* :mod:`repro.sram.mbu` -- multi-bit-upset cluster statistics.
* :mod:`repro.sram.protection` -- even parity and SECDED(72,64) Hamming
  codes implemented bit-for-bit.
* :mod:`repro.sram.array` -- an addressable SRAM array with a sparse
  upset store and scrub/access semantics.
* :mod:`repro.sram.scrubbing` -- scrub-interval policy analysis for
  SECDED-protected arrays.
"""

from .cross_section import CrossSectionModel
from .mbu import MbuModel, MbuCluster
from .protection import (
    Codec,
    CodecResult,
    ParityCodec,
    SecdedCodec,
    DecodeStatus,
)
from .array import SramArray, ArrayGeometry, UpsetRecord
from .scrubbing import ScrubbingModel, model_from_level_rate

__all__ = [
    "CrossSectionModel",
    "MbuModel",
    "MbuCluster",
    "Codec",
    "CodecResult",
    "ParityCodec",
    "SecdedCodec",
    "DecodeStatus",
    "SramArray",
    "ArrayGeometry",
    "UpsetRecord",
    "ScrubbingModel",
    "model_from_level_rate",
]
