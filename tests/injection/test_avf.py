"""AVF utilities (design implication #3)."""

import pytest

from repro.errors import AnalysisError
from repro.injection.avf import scale_avf_fit, structure_fit


class TestStructureFit:
    def test_formula(self):
        # 1 Mbit at 15 FIT/Mbit with AVF 0.5 -> 7.5 FIT.
        assert structure_fit(1_000_000, 15.0, 0.5) == pytest.approx(7.5)

    def test_scales_linearly_in_bits(self):
        assert structure_fit(2_000_000, 15.0, 0.5) == pytest.approx(
            2 * structure_fit(1_000_000, 15.0, 0.5)
        )

    def test_validation(self):
        with pytest.raises(AnalysisError):
            structure_fit(-1, 15.0, 0.5)
        with pytest.raises(AnalysisError):
            structure_fit(1, -15.0, 0.5)
        with pytest.raises(AnalysisError):
            structure_fit(1, 15.0, 2.0)


class TestScaleAvfFit:
    def test_multiplication(self):
        assert scale_avf_fit(10.0, 1.4) == pytest.approx(14.0)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            scale_avf_fit(-1.0, 1.0)
        with pytest.raises(AnalysisError):
            scale_avf_fit(1.0, -1.0)
