"""Cross-study comparison helpers."""

import pytest

from repro.core.comparison import (
    REFERENCE_STUDIES,
    ReferenceStudy,
    is_consistent_with_reference,
    masking_factor,
)
from repro.errors import AnalysisError


class TestMaskingFactor:
    def test_paper_value(self):
        # 2.08 dynamic vs 15 static -> ~86% masking.
        assert masking_factor(2.08, 15.0) == pytest.approx(0.861, abs=0.005)

    def test_no_masking_when_equal(self):
        assert masking_factor(15.0, 15.0) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            masking_factor(-1.0, 15.0)
        with pytest.raises(AnalysisError):
            masking_factor(1.0, 0.0)
        with pytest.raises(AnalysisError):
            masking_factor(20.0, 15.0)


class TestConsistency:
    @pytest.fixture
    def static_ref(self):
        return next(r for r in REFERENCE_STUDIES if r.static_test)

    def test_paper_sers_consistent(self, static_ref):
        for ser in (2.08, 2.22, 2.30, 2.45):
            assert is_consistent_with_reference(ser, static_ref)

    def test_above_reference_inconsistent(self, static_ref):
        assert not is_consistent_with_reference(20.0, static_ref)

    def test_implausibly_low_inconsistent(self, static_ref):
        assert not is_consistent_with_reference(0.1, static_ref)

    def test_needs_static_reference(self):
        dynamic = next(r for r in REFERENCE_STUDIES if not r.static_test)
        with pytest.raises(AnalysisError):
            is_consistent_with_reference(2.0, dynamic)


class TestReferenceStudy:
    def test_validation(self):
        with pytest.raises(AnalysisError):
            ReferenceStudy("x", node_nm=0, ser_fit_per_mbit=1.0, static_test=True)
        with pytest.raises(AnalysisError):
            ReferenceStudy("x", node_nm=28, ser_fit_per_mbit=0.0, static_test=True)
