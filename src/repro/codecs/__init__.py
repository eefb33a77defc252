"""Pluggable ECC design-space subsystem.

The paper fixes its protection axis -- even parity on the TLB/L1
arrays, SECDED(72,64) on L2/L3 (Table 1) -- and every headline FIT
number is conditioned on that choice.  This subpackage opens the axis
into a design space:

* :mod:`repro.codecs.registry` -- the stable string-keyed plugin API
  (:func:`register_codec` / :func:`get_codec` / :func:`list_codecs`);
  the built-in ``parity`` and ``secded`` entries adapt the codecs from
  :mod:`repro.sram.protection` unchanged, keeping the paper-conformance
  anchor intact.
* :mod:`repro.codecs.dected`, :mod:`repro.codecs.secdaec`,
  :mod:`repro.codecs.bch` -- DEC-TED(80,64), SEC-DAEC(72,64) (adjacent
  -error correction, exercised against the MBU cluster model), and
  extended BCH t=2/t=3, all built on the syndrome-table machinery in
  :mod:`repro.codecs.linear` over the GF(2^m) arithmetic in
  :mod:`repro.codecs.gf`.
* :mod:`repro.codecs.vector` -- the batched decode hot path (packed
  uint64 H matrices, whole-batch popcounts, searchsorted syndrome
  tables, the ``run_masks`` flip-mask kernel), with the scalar codecs
  retained as the differential reference
  (``codec_scalar_vs_vectorized`` pairing).
* :mod:`repro.codecs.cost` -- gate-counted area/energy models so
  sweeps can emit FIT-vs-area-vs-energy Pareto fronts.
* :mod:`repro.codecs.sweep` -- the codec x voltage x workload explorer
  sweep: broker-schedulable cells, FIT assembly with Garwood/Wilson
  intervals, Pareto-front extraction (``repro-campaign explore``).
"""

from .cost import CodecCost, parity_cost, probe_cost, secded_cost, table_codec_cost
from .bch import BchCodec
from .dected import DecTedCodec
from .linear import SyndromeTableCodec, adjacent_pair_patterns, patterns_up_to_weight
from .registry import (
    CodecPlugin,
    RegisteredCodec,
    get_codec,
    list_codecs,
    register_codec,
    unregister_codec,
)
from .secdaec import SecDaecCodec
from .sweep import (
    SweepCell,
    SweepSpec,
    assemble_pareto,
    plan_sweep,
    run_cell,
    sweep_cells,
)
from .vector import (
    CLEAN,
    CORRECTED,
    DUE,
    SILENT,
    STATUS_OF_CODE,
    ScalarFallbackVectorized,
    VectorizedCodec,
    VectorizedParity,
    VectorizedSecded,
    VectorizedTableCodec,
    pack_masks,
    run_masks,
)

__all__ = [
    "BchCodec",
    "DecTedCodec",
    "SecDaecCodec",
    "SyndromeTableCodec",
    "adjacent_pair_patterns",
    "patterns_up_to_weight",
    "CodecCost",
    "parity_cost",
    "probe_cost",
    "secded_cost",
    "table_codec_cost",
    "CodecPlugin",
    "RegisteredCodec",
    "get_codec",
    "list_codecs",
    "register_codec",
    "unregister_codec",
    "SweepCell",
    "SweepSpec",
    "assemble_pareto",
    "plan_sweep",
    "run_cell",
    "sweep_cells",
    "CLEAN",
    "CORRECTED",
    "DUE",
    "SILENT",
    "STATUS_OF_CODE",
    "ScalarFallbackVectorized",
    "VectorizedCodec",
    "VectorizedParity",
    "VectorizedSecded",
    "VectorizedTableCodec",
    "pack_masks",
    "run_masks",
]
