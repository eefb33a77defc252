"""Neutron energy spectrum."""

import pytest

from repro.beam.spectrum import NeutronSpectrum
from repro.errors import BeamError


class TestValidation:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(BeamError):
            NeutronSpectrum(e_min_mev=0)
        with pytest.raises(BeamError):
            NeutronSpectrum(e_min_mev=100, e_max_mev=50)
        with pytest.raises(BeamError):
            NeutronSpectrum(gamma=1.0)
        with pytest.raises(BeamError):
            NeutronSpectrum(thermal_fraction=1.0)
