"""Explorer sweep: spec validation, planning, cell physics, assembly."""

import hashlib
import json

import numpy as np
import pytest

from repro.codecs import (
    SweepSpec,
    assemble_pareto,
    list_codecs,
    plan_sweep,
    run_cell,
    sweep_cells,
)
from repro.codecs.sweep import _cluster_flip_lengths
from repro.errors import CodecError

#: sha256 prefixes of the canonical payload JSON, captured on the
#: commit *before* flips were built by the run-mask kernel, by
#: interleave factor.
PRE_KERNEL_PAYLOAD_DIGESTS = {1: "41da4b53f0c8ff48", 3: "2e084de51657cb12"}

SMALL = dict(
    codecs=("parity", "secded"),
    points=((980, 950), (790, 950)),
    workloads=("CG",),
    strikes=64,
    seed=7,
)


class TestSweepSpec:
    def test_defaults_are_valid(self):
        spec = SweepSpec()
        assert "secded" in spec.codecs
        assert (790, 950) in spec.points
        assert spec.strikes == 2000

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(codecs=()), "at least one codec"),
            (dict(codecs=("nope",)), "unknown codec"),
            (dict(codecs=("parity", "parity")), "duplicate codec"),
            (dict(points=()), "at least one operating point"),
            (dict(points=((0, 950),)), "positive"),
            (dict(points=((980, 950), (980, 950))), "duplicate operating"),
            (dict(workloads=()), "at least one workload"),
            (dict(workloads=("XX",)), "unknown workload"),
            (dict(workloads=("CG", "CG")), "duplicate workload"),
            (dict(strikes=1), "at least 2 strikes"),
            (dict(interleave=0), "interleave"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(CodecError, match=match):
            SweepSpec(**kwargs)

    def test_name_does_not_change_hash(self):
        anonymous = SweepSpec(**SMALL)
        named = SweepSpec(name="display only", **SMALL)
        assert anonymous.config_hash == named.config_hash
        assert named.submission_id == f"sub-{named.config_hash[:12]}"

    def test_physics_fields_change_hash(self):
        base = SweepSpec(**SMALL)
        bumped = SweepSpec(**{**SMALL, "seed": 8})
        assert base.config_hash != bumped.config_hash

    def test_dict_roundtrip(self):
        spec = SweepSpec(name="rt", **SMALL)
        clone = SweepSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.config_hash == spec.config_hash

    def test_from_dict_refuses_unknown_keys(self):
        with pytest.raises(CodecError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"codecs": ["parity"], "bogus": 1})


class TestPlanning:
    def test_cells_are_codec_major_with_stable_labels(self):
        spec = SweepSpec(**SMALL)
        cells = sweep_cells(spec)
        assert [c.label for c in cells] == [
            "parity-980-950-CG",
            "parity-790-950-CG",
            "secded-980-950-CG",
            "secded-790-950-CG",
        ]
        assert all(c.strikes == 64 and c.seed == 7 for c in cells)

    def test_plan_unit_ids_carry_config_hash(self):
        spec = SweepSpec(**SMALL)
        plan = plan_sweep(spec)
        prefix = spec.config_hash[:12]
        assert plan.config_hash == spec.config_hash
        assert [u.seq for u in plan.units] == [0, 1, 2, 3]
        for unit, cell in zip(plan.units, sweep_cells(spec)):
            assert unit.unit_id == f"{prefix}/{cell.label}"
            assert unit.label == cell.label


class TestInterleaving:
    def test_interleave_1_keeps_cluster_lengths(self):
        sizes = np.array([1, 2, 5])
        assert _cluster_flip_lengths(sizes, 1).tolist() == [1, 2, 5]

    def test_interleave_folds_runs_across_words(self):
        # A 5-cell physical run over interleave 2 lands ceil(5/2)=3
        # bits in the offset-0 word and ceil(4/2)=2 in the offset-1
        # word; a single cell touches only one word.
        sizes = np.array([5, 1])
        assert _cluster_flip_lengths(sizes, 2).tolist() == [3, 1, 2]

    def test_total_flipped_bits_conserved(self):
        rng = np.random.default_rng(3)
        sizes = rng.integers(1, 9, size=100)
        for interleave in (1, 2, 4):
            lengths = _cluster_flip_lengths(sizes, interleave)
            assert lengths.sum() == sizes.sum()
            assert (lengths >= 1).all()


class TestRunCell:
    def test_deterministic_and_consistent(self):
        spec = SweepSpec(**SMALL)
        cell = sweep_cells(spec)[3]  # secded at the deep undervolt
        payload = run_cell(cell)
        assert payload == run_cell(cell)
        assert payload["label"] == cell.label
        total = (
            payload["clean"]
            + payload["corrected"]
            + payload["detected"]
            + payload["silent"]
        )
        assert total == payload["events"]
        assert payload["events"] >= cell.strikes  # folding only adds words
        for key in ("clean", "corrected", "detected", "silent"):
            assert (
                payload["halves"]["first"][key]
                + payload["halves"]["second"][key]
                == payload[key]
            )
        assert json.loads(json.dumps(payload)) == payload  # plain JSON


class TestPinnedPayloads:
    """Every registered codec on two nodes at two points: the bytes the
    explorer committed before its flip masks moved onto the kernel."""

    @pytest.mark.parametrize("interleave", sorted(PRE_KERNEL_PAYLOAD_DIGESTS))
    def test_payload_digest_pinned(self, interleave):
        spec = SweepSpec(
            codecs=tuple(sorted(list_codecs())),
            points=((980, 950), (790, 950)),
            workloads=("CG",),
            strikes=512,
            seed=11,
            interleave=interleave,
            nodes=("xgene2-28", "7nm"),
        )
        payloads = [run_cell(cell) for cell in sweep_cells(spec)]
        assert len(payloads) == 24
        canonical = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert digest[:16] == PRE_KERNEL_PAYLOAD_DIGESTS[interleave]


class TestAssemblePareto:
    @pytest.fixture(scope="class")
    def document(self):
        spec = SweepSpec(**SMALL)
        payloads = [run_cell(cell) for cell in sweep_cells(spec)]
        return assemble_pareto(spec, payloads)

    def test_missing_cell_refused(self):
        spec = SweepSpec(**SMALL)
        payloads = [run_cell(cell) for cell in sweep_cells(spec)[:-1]]
        with pytest.raises(CodecError, match="missing 1 cell"):
            assemble_pareto(spec, payloads)

    def test_document_shape(self, document):
        spec = SweepSpec(**SMALL)
        assert document["schema"] == 1
        assert document["config_hash"] == spec.config_hash
        assert len(document["cells"]) == 4
        assert set(document["costs"]) == {"parity", "secded"}
        for cell in document["cells"]:
            for key in ("fit_due", "fit_sdc", "fit_total", "silent_fraction"):
                interval = cell[key]
                assert interval["lower"] <= interval["value"] <= interval["upper"]
            assert cell["cost"]["area_gates"] > 0

    def test_front_is_nondominated_per_slice(self, document):
        for cell in document["cells"]:
            peers = [
                other
                for other in document["cells"]
                if other["pmd_mv"] == cell["pmd_mv"]
                and other["soc_mv"] == cell["soc_mv"]
                and other["workload"] == cell["workload"]
                and other is not cell
            ]

            def objectives(c):
                return (
                    c["fit_total"]["value"],
                    float(c["cost"]["area_gates"]),
                    float(c["cost"]["energy_pj"]),
                )

            dominated = any(
                all(a <= b for a, b in zip(objectives(p), objectives(cell)))
                and any(a < b for a, b in zip(objectives(p), objectives(cell)))
                for p in peers
            )
            assert cell["on_front"] == (not dominated)
        front_labels = {entry["label"] for entry in document["pareto"]}
        assert front_labels == {
            c["label"] for c in document["cells"] if c["on_front"]
        }
        # Every slice keeps at least one survivor on the front.
        assert len(front_labels) >= 2
