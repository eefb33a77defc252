"""The codec x voltage x workload explorer sweep.

Each sweep *cell* fixes one (codec, operating point, workload) triple
and pushes a batch of MBU-realistic strikes through the codec's real
encode/corrupt/decode arithmetic on the vectorized path: cluster sizes
come from the calibrated :class:`~repro.sram.mbu.MbuModel` at the
cell's undervolt, interleaving folds each physical cluster into
per-word adjacent runs, and the batched ``classify`` splits the
outcomes into clean / corrected / detected / silent.  SILENT events
are *emergent* -- they happen exactly when a pattern aliases onto the
codec's syndrome table (SECDED triples, DAEC non-adjacent doubles,
DEC-TED quads), never by postulate.

Cells are planned as ordinary scheduler work units, so a sweep shards,
leases, checkpoints, and resumes through the same
:class:`~repro.scheduler.Broker`/:class:`~repro.scheduler.DirectoryStore`
machinery as any campaign, and two brokers can share one on-disk sweep.

:func:`assemble_pareto` turns the committed cell payloads into per-cell
FIT estimates (Garwood intervals on event counts, Wilson interval on
the silent fraction, scaled by the calibrated L3 rate model and the
workload's detection efficiency down to NYC reference flux) and
extracts the per-(point, workload) Pareto front over
(FIT, area, energy).  Split-half Poisson pair gates ride along so a
sweep validates its own statistics.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..constants import (
    FIT_HOURS,
    NYC_FLUX_PER_CM2_HOUR,
    TNF_HALO_FLUX_PER_CM2_S,
)
from ..core.confidence import binomial_interval, poisson_interval
from ..engine.executor import WorkUnit
from ..errors import CodecError
from ..injection.calibration import LevelRateModel
from ..rng import RngStreams
from ..scheduler.planner import CampaignPlan, PlannedUnit
from ..soc.geometry import CacheLevel
from ..sram.mbu import MbuModel
from ..tech import DEFAULT_NODE, get_node
from ..validate.gates import GateResult, poisson_pair_gate
from ..workloads.profiles import PROFILES
from .registry import get_codec, list_codecs
from .vector import CLEAN, CORRECTED, DUE, SILENT, run_masks

#: The paper's four operating points as (pmd_mv, soc_mv) pairs.
DEFAULT_POINTS: Tuple[Tuple[int, int], ...] = (
    (980, 950),
    (930, 925),
    (920, 920),
    (790, 950),
)
#: Default codec axis (bch-t3 is opt-in: its table build dominates).
DEFAULT_CODECS: Tuple[str, ...] = (
    "parity",
    "secded",
    "dected",
    "sec-daec",
    "bch-t2",
)
#: Default workload axis: reuse-heavy, streaming, and compute-bound.
DEFAULT_WORKLOADS: Tuple[str, ...] = ("CG", "FT", "EP")

#: Acceleration factor from beam flux down to NYC reference flux.
_ACCELERATION = TNF_HALO_FLUX_PER_CM2_S * 3600.0 / NYC_FLUX_PER_CM2_HOUR


@dataclass(frozen=True)
class SweepSpec:
    """Frozen, hashable description of one explorer sweep.

    The config hash (and hence the submission id and every unit id) is
    derived from the canonical JSON of all physics-relevant fields;
    ``name`` is display-only and excluded, mirroring
    :class:`~repro.scheduler.CampaignSpec`.
    """

    codecs: Tuple[str, ...] = DEFAULT_CODECS
    points: Tuple[Tuple[int, int], ...] = DEFAULT_POINTS
    workloads: Tuple[str, ...] = DEFAULT_WORKLOADS
    strikes: int = 2000
    seed: int = 2023
    interleave: int = 1
    nodes: Tuple[str, ...] = (DEFAULT_NODE,)
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "codecs", tuple(self.codecs))
        object.__setattr__(
            self, "points", tuple((int(p), int(s)) for p, s in self.points)
        )
        object.__setattr__(self, "workloads", tuple(self.workloads))
        if not self.nodes:
            raise CodecError("sweep needs at least one technology node")
        # Canonicalize through the registry ("28nm" -> "xgene2-28") so
        # aliases hash the same and unknown names fail at spec time.
        object.__setattr__(
            self, "nodes", tuple(get_node(n).name for n in self.nodes)
        )
        if len(set(self.nodes)) != len(self.nodes):
            raise CodecError("duplicate node in sweep spec")
        if not self.codecs:
            raise CodecError("sweep needs at least one codec")
        known = set(list_codecs())
        for codec in self.codecs:
            if codec not in known:
                raise CodecError(
                    f"unknown codec {codec!r}; registered: "
                    f"{', '.join(sorted(known))}"
                )
        if len(set(self.codecs)) != len(self.codecs):
            raise CodecError("duplicate codec in sweep spec")
        if not self.points:
            raise CodecError("sweep needs at least one operating point")
        for pmd_mv, soc_mv in self.points:
            if pmd_mv <= 0 or soc_mv <= 0:
                raise CodecError("operating-point voltages must be positive")
        if len(set(self.points)) != len(self.points):
            raise CodecError("duplicate operating point in sweep spec")
        if not self.workloads:
            raise CodecError("sweep needs at least one workload")
        for workload in self.workloads:
            if workload not in PROFILES:
                raise CodecError(
                    f"unknown workload {workload!r}; known: "
                    f"{', '.join(sorted(PROFILES))}"
                )
        if len(set(self.workloads)) != len(self.workloads):
            raise CodecError("duplicate workload in sweep spec")
        if self.strikes < 2:
            raise CodecError("sweep needs at least 2 strikes per cell")
        if self.interleave < 1:
            raise CodecError("interleave factor must be >= 1")

    @property
    def config_hash(self) -> str:
        data = {
            "kind": "codec-sweep",
            "codecs": list(self.codecs),
            "points": [list(p) for p in self.points],
            "workloads": list(self.workloads),
            "strikes": self.strikes,
            "seed": self.seed,
            "interleave": self.interleave,
        }
        # The node axis folds in only when non-default, so every
        # pre-existing sweep keeps its submission id and unit ids.
        if self.nodes != (DEFAULT_NODE,):
            data["nodes"] = list(self.nodes)
        canonical = json.dumps(
            data,
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def submission_id(self) -> str:
        return f"sub-{self.config_hash[:12]}"

    def to_dict(self) -> dict:
        data = {
            "codecs": list(self.codecs),
            "points": [list(p) for p in self.points],
            "workloads": list(self.workloads),
            "strikes": self.strikes,
            "seed": self.seed,
            "interleave": self.interleave,
            "name": self.name,
        }
        if self.nodes != (DEFAULT_NODE,):
            data["nodes"] = list(self.nodes)
        return data

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        known = {
            "codecs",
            "points",
            "workloads",
            "strikes",
            "seed",
            "interleave",
            "nodes",
            "name",
        }
        unknown = set(payload) - known
        if unknown:
            raise CodecError(
                f"unknown sweep spec keys: {', '.join(sorted(unknown))}"
            )
        kwargs = dict(payload)
        if "points" in kwargs:
            kwargs["points"] = tuple(tuple(p) for p in kwargs["points"])
        if "nodes" in kwargs:
            kwargs["nodes"] = tuple(kwargs["nodes"])
        return cls(**kwargs)


@dataclass(frozen=True)
class SweepCell:
    """One schedulable (codec, node, point, workload) cell -- picklable."""

    label: str
    codec: str
    pmd_mv: int
    soc_mv: int
    workload: str
    strikes: int
    seed: int
    interleave: int
    node: str = DEFAULT_NODE


def sweep_cells(spec: SweepSpec) -> List[SweepCell]:
    """Expand a spec into ordered cells (codec-major, plan order).

    The spec's points are 28 nm reference voltages; non-default nodes
    scale them onto their own regulator grid, and their cell labels
    carry the node name.  Default-node cells keep the historical label
    format and voltages exactly, so pre-existing sweeps re-plan to the
    same unit ids.
    """
    cells = []
    for codec in spec.codecs:
        for node_name in spec.nodes:
            node = get_node(node_name)
            for ref_pmd, ref_soc in spec.points:
                if node.is_default:
                    pmd_mv, soc_mv = ref_pmd, ref_soc
                    label_prefix = codec
                else:
                    pmd_mv = node.scale_pmd_mv(ref_pmd)
                    soc_mv = node.scale_soc_mv(ref_soc)
                    label_prefix = f"{codec}-{node_name}"
                for workload in spec.workloads:
                    cells.append(
                        SweepCell(
                            label=(
                                f"{label_prefix}-{pmd_mv}-{soc_mv}-"
                                f"{workload}"
                            ),
                            codec=codec,
                            pmd_mv=pmd_mv,
                            soc_mv=soc_mv,
                            workload=workload,
                            strikes=spec.strikes,
                            seed=spec.seed,
                            interleave=spec.interleave,
                            node=node_name,
                        )
                    )
    labels = [cell.label for cell in cells]
    if len(set(labels)) != len(labels):
        raise CodecError(
            "node scaling collapsed distinct sweep points onto the same "
            "cell label; spread the reference points further apart"
        )
    return cells


def _cluster_flip_lengths(
    sizes: np.ndarray, interleave: int
) -> np.ndarray:
    """Fold physical cluster sizes into per-word adjacent-run lengths.

    Mirrors :meth:`MbuModel.split_by_interleaving`: a physical run of
    ``size`` adjacent cells lands ``ceil((size - j) / interleave)``
    bits in the word at interleave offset ``j``.  The result is one
    run length per affected word, in a deterministic order (all
    offset-0 words first, then offset-1, ...), so each strike can
    produce several protected-word events.
    """
    lengths = []
    for j in range(interleave):
        in_word = np.ceil((sizes - j) / interleave).astype(np.int64)
        lengths.append(in_word[sizes > j])
    return np.concatenate(lengths)


def run_cell(cell: SweepCell) -> dict:
    """Execute one sweep cell: strike, fold, classify, count.

    Deterministic in the cell alone (seed + label derive the RNG
    stream), so any broker/worker/resume interleaving commits the same
    payload bytes -- the property the byte-identity CI check pins.
    """
    bundle = get_codec(cell.codec)
    vec = bundle.vectorized
    codec = bundle.codec
    rng = RngStreams(cell.seed).child("explorer", cell=cell.label)
    rates = LevelRateModel.for_node(get_node(cell.node))
    undervolt = rates.undervolt_fraction(
        CacheLevel.L3, float(cell.pmd_mv), float(cell.soc_mv)
    )
    sizes = MbuModel().sample_sizes(rng, undervolt, cell.strikes)
    lengths = _cluster_flip_lengths(sizes, cell.interleave)
    events = int(lengths.shape[0])
    word_bits = codec.word_bits
    lengths = np.minimum(lengths, word_bits)
    starts = rng.integers(0, word_bits - lengths + 1)
    if codec.data_bits >= 64:
        high = rng.integers(0, 1 << 32, size=events, dtype=np.uint64)
        low = rng.integers(0, 1 << 32, size=events, dtype=np.uint64)
        data = (high << np.uint64(32)) | low
    else:
        data = rng.integers(
            0, 1 << codec.data_bits, size=events, dtype=np.uint64
        )
    flips = run_masks(starts, lengths, vec.limbs)
    status, _ = vec.classify_batch(data, flips)
    half = events // 2
    counts = np.bincount(status, minlength=4)
    first = np.bincount(status[:half], minlength=4)
    second = np.bincount(status[half:], minlength=4)

    def _split(portion: np.ndarray) -> dict:
        return {
            "clean": int(portion[CLEAN]),
            "corrected": int(portion[CORRECTED]),
            "detected": int(portion[DUE]),
            "silent": int(portion[SILENT]),
        }

    payload = {
        "label": cell.label,
        "codec": cell.codec,
        "pmd_mv": cell.pmd_mv,
        "soc_mv": cell.soc_mv,
        "workload": cell.workload,
        "strikes": cell.strikes,
        "interleave": cell.interleave,
        "events": events,
    }
    if cell.node != DEFAULT_NODE:
        payload["node"] = cell.node
    payload.update(_split(counts))
    payload["halves"] = {"first": _split(first), "second": _split(second)}
    return payload


def plan_sweep(spec: SweepSpec) -> CampaignPlan:
    """Plan a sweep as broker-schedulable units with stable ids."""
    config_hash = spec.config_hash
    prefix = config_hash[:12]
    units = tuple(
        PlannedUnit(
            unit_id=f"{prefix}/{cell.label}",
            label=cell.label,
            seq=seq,
            unit=WorkUnit(key=cell.label, fn=run_cell, args=(cell,)),
        )
        for seq, cell in enumerate(sweep_cells(spec))
    )
    return CampaignPlan(
        config_hash=config_hash,
        units=units,
        name=spec.name or f"explore-{prefix}",
        seed=spec.seed,
        time_scale=1.0,
    )


# -- FIT assembly and the Pareto front ----------------------------------------


def _interval_dict(interval) -> dict:
    return {
        "value": interval.value,
        "lower": interval.lower,
        "upper": interval.upper,
        "level": interval.level,
    }


def _cell_fit(payload: dict) -> Tuple[dict, List[GateResult]]:
    """FIT estimates (Garwood/Wilson) + split-half gates for one cell."""
    rates = LevelRateModel.for_node(
        get_node(payload.get("node", DEFAULT_NODE))
    )
    pmd_mv = float(payload["pmd_mv"])
    soc_mv = float(payload["soc_mv"])
    profile = PROFILES[payload["workload"]]
    # Raw detected-upset rate of the L3 (the codec-bearing array) at
    # this point, thinned by what this workload actually surfaces.
    raw_rate = rates.rate_per_min(
        CacheLevel.L3, True, pmd_mv, soc_mv
    ) + rates.rate_per_min(CacheLevel.L3, False, pmd_mv, soc_mv)
    surfaced_rate = raw_rate * profile.detection_efficiency("L3 Cache")
    events = max(int(payload["events"]), 1)
    # events/hour at NYC flux, split over this cell's strike batch.
    fit_factor = surfaced_rate * 60.0 / _ACCELERATION * FIT_HOURS / events
    detected = int(payload["detected"])
    silent = int(payload["silent"])
    fit_due = poisson_interval(detected).scaled(fit_factor)
    fit_sdc = poisson_interval(silent).scaled(fit_factor * profile.avf_sdc)
    fit_total = poisson_interval(detected + silent).scaled(fit_factor)
    silent_fraction = binomial_interval(silent, events)
    halves = payload["halves"]
    gates = [
        poisson_pair_gate(
            f"explore/{payload['label']}/detected-halves",
            halves["first"]["detected"],
            halves["second"]["detected"],
        ),
        poisson_pair_gate(
            f"explore/{payload['label']}/silent-halves",
            halves["first"]["silent"],
            halves["second"]["silent"],
        ),
    ]
    cell = dict(payload)
    cell["fit_due"] = _interval_dict(fit_due)
    cell["fit_sdc"] = _interval_dict(fit_sdc)
    cell["fit_total"] = _interval_dict(fit_total)
    cell["silent_fraction"] = _interval_dict(silent_fraction)
    return cell, gates


def _dominates(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    """Minimization dominance: a <= b everywhere, < somewhere."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def assemble_pareto(spec: SweepSpec, payloads: Sequence[dict]) -> dict:
    """Assemble committed cell payloads into the pareto.json document.

    Cells ride in plan order; the Pareto front minimizes
    (total FIT, area gates, energy pJ) independently per
    (operating point, workload) slice.  ``ok`` aggregates the
    split-half statistical gates.
    """
    expected = {cell.label for cell in sweep_cells(spec)}
    seen = {payload["label"] for payload in payloads}
    missing = expected - seen
    if missing:
        raise CodecError(
            f"sweep is missing {len(missing)} cell(s): "
            f"{', '.join(sorted(missing))}"
        )
    costs = {name: get_codec(name).cost.to_dict() for name in spec.codecs}
    cells = []
    gates: List[GateResult] = []
    for payload in payloads:
        cell, cell_gates = _cell_fit(payload)
        cell["cost"] = costs[cell["codec"]]
        cells.append(cell)
        gates.extend(cell_gates)
    # Pareto extraction per (node, point, workload) slice, over codecs.
    slices: Dict[Tuple[str, int, int, str], List[dict]] = {}
    for c in cells:
        key = (
            c.get("node", DEFAULT_NODE),
            c["pmd_mv"],
            c["soc_mv"],
            c["workload"],
        )
        slices.setdefault(key, []).append(c)
    front_labels = set()
    for slice_cells in slices.values():
        objectives = {
            c["label"]: (
                c["fit_total"]["value"],
                float(c["cost"]["area_gates"]),
                float(c["cost"]["energy_pj"]),
            )
            for c in slice_cells
        }
        for c in slice_cells:
            mine = objectives[c["label"]]
            if not any(
                _dominates(objectives[other["label"]], mine)
                for other in slice_cells
                if other is not c
            ):
                front_labels.add(c["label"])
    for c in cells:
        c["on_front"] = c["label"] in front_labels
    front = []
    for c in cells:
        if not c["on_front"]:
            continue
        entry = {
            "label": c["label"],
            "codec": c["codec"],
            "pmd_mv": c["pmd_mv"],
            "soc_mv": c["soc_mv"],
            "workload": c["workload"],
            "fit_total": c["fit_total"]["value"],
            "area_gates": c["cost"]["area_gates"],
            "energy_pj": c["cost"]["energy_pj"],
        }
        if "node" in c:
            entry["node"] = c["node"]
        front.append(entry)
    return {
        "schema": 1,
        "spec": spec.to_dict(),
        "config_hash": spec.config_hash,
        "submission_id": spec.submission_id,
        "cells": cells,
        "pareto": front,
        "costs": costs,
        "gates": [gate.to_dict() for gate in gates],
        "ok": all(gate.ok for gate in gates),
    }
