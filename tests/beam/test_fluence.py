"""Fluence accounting and NYC equivalence."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.beam.fluence import (
    FluenceAccount,
    acceleration_factor,
    nyc_equivalent_hours,
    nyc_equivalent_years,
)
from repro.errors import BeamError

POSITIVE = st.floats(min_value=1e-3, max_value=1e12, allow_nan=False)


class TestFluenceAccount:
    def test_single_exposure(self):
        account = FluenceAccount()
        account.expose(1.5e6, 3600.0)
        assert account.fluence_per_cm2 == pytest.approx(5.4e9)
        assert account.exposure_minutes == pytest.approx(60.0)

    def test_additivity(self):
        a = FluenceAccount()
        a.expose(1.5e6, 100.0)
        a.expose(1.5e6, 200.0)
        b = FluenceAccount()
        b.expose(1.5e6, 300.0)
        assert a.fluence_per_cm2 == pytest.approx(b.fluence_per_cm2)

    def test_session1_fluence_reproduced(self):
        # Table 2 session 1: 1651 min at the halo flux -> 1.49e11 n/cm2.
        account = FluenceAccount()
        account.expose(1.5e6, 1651 * 60)
        assert account.fluence_per_cm2 == pytest.approx(1.49e11, rel=0.01)
        assert account.nyc_equivalent_years() == pytest.approx(1.30e6, rel=0.02)

    def test_negative_inputs_rejected(self):
        account = FluenceAccount()
        with pytest.raises(BeamError):
            account.expose(-1.0, 10.0)
        with pytest.raises(BeamError):
            account.expose(1.0, -10.0)

    @given(flux=POSITIVE, t1=POSITIVE, t2=POSITIVE)
    def test_exposure_additivity_property(self, flux, t1, t2):
        a = FluenceAccount()
        a.expose(flux, t1)
        a.expose(flux, t2)
        b = FluenceAccount()
        b.expose(flux, t1 + t2)
        assert a.fluence_per_cm2 == pytest.approx(b.fluence_per_cm2, rel=1e-9)


class TestNycEquivalence:
    def test_hours_inverse_of_flux(self):
        assert nyc_equivalent_hours(13.0) == pytest.approx(1.0)

    def test_years_scaling(self):
        hours = nyc_equivalent_hours(1e11)
        assert nyc_equivalent_years(1e11) == pytest.approx(hours / (24 * 365.25))

    def test_negative_rejected(self):
        with pytest.raises(BeamError):
            nyc_equivalent_hours(-1.0)


class TestAcceleration:
    def test_halo_acceleration_factor(self):
        # 1.5e6 n/cm2/s vs 13 n/cm2/h.
        assert acceleration_factor(1.5e6) == pytest.approx(4.15e8, rel=0.01)

    def test_negative_rejected(self):
        with pytest.raises(BeamError):
            acceleration_factor(-1.0)
