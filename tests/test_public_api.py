"""Public-API surface checks."""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


class TestImports:
    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_subpackage_imports(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_all_names_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj is not errors.ReproError
                and obj.__module__ == "repro.errors"
            ):
                assert issubclass(obj, errors.ReproError), name

    def test_catching_the_base_covers_subsystems(self):
        from repro.errors import ReproError, VoltageError
        from repro.soc.domains import make_pmd_domain

        with pytest.raises(ReproError):
            make_pmd_domain().set_voltage(985)
        with pytest.raises(VoltageError):
            make_pmd_domain().set_voltage(985)


class TestConstantsSanity:
    def test_flux_identities(self):
        from repro import constants

        assert constants.TNF_HALO_FLUX_PER_CM2_S == pytest.approx(
            0.5
            * (constants.TNF_FLUX_MIN_PER_CM2_S + constants.TNF_FLUX_MAX_PER_CM2_S)
            * constants.TNF_HALO_FRACTION
        )

    def test_platform_geometry_sums(self):
        from repro import constants

        per_core_l1 = constants.L1I_BYTES + constants.L1D_BYTES
        total = (
            constants.NUM_CORES * per_core_l1
            + constants.NUM_PAIRS * constants.L2_BYTES
            + constants.L3_BYTES
        )
        # Caches alone come to 9.5 MiB; with TLBs the paper rounds to
        # "10 MB of on-chip SRAM".
        assert total == pytest.approx(9.5 * 1024 * 1024)

    def test_voltage_grid(self):
        from repro import constants

        assert (constants.PMD_NOMINAL_MV - 920) % constants.VOLTAGE_STEP_MV == 0
        assert (constants.PMD_NOMINAL_MV - 790) % constants.VOLTAGE_STEP_MV == 0
        assert (constants.SOC_NOMINAL_MV - 925) % constants.VOLTAGE_STEP_MV == 0
