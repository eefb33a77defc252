"""ABFT checksum kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.resilience.abft import (
    abft_matvec,
    abft_matvec_encoded,
    checksum_augment,
    overhead_fraction,
)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(6)


class TestAugmentation:
    def test_checksum_row_is_column_sums(self, rng):
        a = rng.standard_normal((5, 7))
        augmented = checksum_augment(a)
        assert augmented.shape == (6, 7)
        assert np.allclose(augmented[-1], a.sum(axis=0))

    def test_needs_2d(self):
        with pytest.raises(AnalysisError):
            checksum_augment(np.ones(4))


class TestMatvec:
    def test_clean_run_no_alarm(self, rng):
        a = rng.standard_normal((16, 16))
        x = rng.standard_normal(16)
        report = abft_matvec(a, x)
        assert not report.detected
        assert np.allclose(report.result, a @ x)

    def test_encoded_detects_stored_corruption(self, rng):
        a = rng.standard_normal((16, 16))
        x = rng.standard_normal(16)
        encoded = checksum_augment(a)
        encoded[3, 4] += 5.0  # corrupt a stored element post-encoding
        report = abft_matvec_encoded(encoded, x)
        assert report.detected

    def test_encoded_clean_no_alarm(self, rng):
        a = rng.standard_normal((16, 16))
        x = rng.standard_normal(16)
        report = abft_matvec_encoded(checksum_augment(a), x)
        assert not report.detected

    def test_shape_validation(self, rng):
        with pytest.raises(AnalysisError):
            abft_matvec(np.ones((3, 3)), np.ones(4))
        with pytest.raises(AnalysisError):
            abft_matvec_encoded(np.ones((1, 3)), np.ones(3))

    @given(
        row=st.integers(min_value=0, max_value=11),
        col=st.integers(min_value=0, max_value=11),
        bump=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=60)
    def test_any_single_data_corruption_detected(self, row, col, bump):
        base = np.random.default_rng(1)
        a = base.standard_normal((12, 12))
        x = base.standard_normal(12)
        encoded = checksum_augment(a)
        encoded[row, col] += bump
        assert abft_matvec_encoded(encoded, x).detected


class TestOverhead:
    def test_vanishes_with_size(self):
        assert overhead_fraction(1000) < 0.003
        assert overhead_fraction(10) > overhead_fraction(100)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            overhead_fraction(0)
