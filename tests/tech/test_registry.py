"""Tech-node registry: plugin API, built-in nodes, alias resolution."""

import pytest

from repro.errors import TechError
from repro.tech import (
    DEFAULT_NODE,
    TechNode,
    default_node,
    get_node,
    list_nodes,
    register_node,
    unregister_node,
)

BUILTINS = ("16nm", "45nm", "7nm", "xgene2-28")


def make_node(name="test-20", **overrides):
    params = dict(
        name=name,
        process_nm=20,
        pmd_nominal_mv=900,
        soc_nominal_mv=880,
        vth_mv=260,
        nominal_freq_mhz=2500,
        freq_step_mhz=25,
        floor_mv=500,
    )
    params.update(overrides)
    return TechNode(**params)


class TestBuiltins:
    def test_all_builtins_listed_sorted(self):
        names = list_nodes()
        assert names == sorted(names)
        for name in BUILTINS:
            assert name in names

    def test_default_node_is_the_paper_chip(self):
        node = default_node()
        assert node.name == DEFAULT_NODE == "xgene2-28"
        assert node.is_default
        assert node.process_nm == 28
        assert node.pmd_nominal_mv == 980
        assert node.soc_nominal_mv == 950
        assert node.nominal_freq_mhz == 2400
        assert node.num_cores == 8
        # All scale factors are exactly 1: the anchor node changes
        # nothing about the calibrated models.
        assert node.cap_scale == node.leakage_scale == 1.0
        assert node.sigma0_scale == node.slope_scale == 1.0

    def test_28nm_alias_resolves_to_the_anchor(self):
        assert get_node("28nm") is get_node("xgene2-28")

    def test_only_the_anchor_is_default(self):
        for name in BUILTINS:
            node = get_node(name)
            assert node.is_default == (name == "xgene2-28")

    def test_builtin_nominal_frequencies_on_their_grids(self):
        for name in BUILTINS:
            node = get_node(name)
            assert node.nominal_freq_mhz % node.freq_step_mhz == 0

    def test_finer_nodes_are_smaller_and_leakier(self):
        n45, n28 = get_node("45nm"), get_node("xgene2-28")
        n16, n7 = get_node("16nm"), get_node("7nm")
        sizes = [n.process_nm for n in (n45, n28, n16, n7)]
        assert sizes == sorted(sizes, reverse=True)
        leaks = [n.leakage_scale for n in (n45, n28, n16, n7)]
        assert leaks == sorted(leaks)


class TestRegistration:
    def test_register_get_unregister_round_trip(self):
        node = make_node()
        register_node(node)
        try:
            assert get_node("test-20") is node
            assert "test-20" in list_nodes()
        finally:
            unregister_node("test-20")
        assert "test-20" not in list_nodes()

    def test_aliases_resolve_and_unregister_with_the_node(self):
        node = make_node()
        register_node(node, aliases=("20nm",))
        try:
            assert get_node("20nm") is node
        finally:
            unregister_node("20nm")  # by alias
        with pytest.raises(TechError):
            get_node("test-20")
        with pytest.raises(TechError):
            get_node("20nm")

    def test_duplicate_requires_replace(self):
        node = make_node()
        register_node(node)
        try:
            with pytest.raises(TechError):
                register_node(make_node())
            replacement = make_node(pmd_nominal_mv=905)
            register_node(replacement, replace=True)
            assert get_node("test-20") is replacement
        finally:
            unregister_node("test-20")

    def test_unknown_node_error_lists_known(self):
        with pytest.raises(TechError) as excinfo:
            get_node("3nm")
        message = str(excinfo.value)
        for name in BUILTINS:
            assert name in message

    def test_unregister_unknown_raises(self):
        with pytest.raises(TechError):
            unregister_node("never-registered")

    def test_builtins_cannot_be_shadowed_silently(self):
        with pytest.raises(TechError):
            register_node(make_node(name="7nm"))


class TestValidation:
    def test_bad_names_rejected(self):
        for name in ("", "a/b", "a b", "a\tb"):
            with pytest.raises(TechError):
                make_node(name=name)

    def test_alpha_must_exceed_one(self):
        with pytest.raises(TechError):
            make_node(alpha=1.0)

    def test_pivot_must_sit_below_nominal(self):
        # vth + nth >= nominal leaves no super-threshold region.
        with pytest.raises(TechError):
            make_node(vth_mv=750, nth_mv=200)

    def test_floor_must_sit_between_pivot_and_nominal(self):
        with pytest.raises(TechError):
            make_node(floor_mv=200)
        with pytest.raises(TechError):
            make_node(floor_mv=950)

    def test_nominal_frequency_must_sit_on_the_grid(self):
        with pytest.raises(TechError):
            make_node(nominal_freq_mhz=2510, freq_step_mhz=25)

    def test_core_count_must_be_even(self):
        with pytest.raises(TechError):
            make_node(num_cores=7)
        with pytest.raises(TechError):
            make_node(num_cores=0)

    def test_scales_must_be_positive(self):
        for field in (
            "cap_scale",
            "leakage_scale",
            "sigma0_scale",
            "slope_scale",
        ):
            with pytest.raises(TechError):
                make_node(**{field: 0.0})
