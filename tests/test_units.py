"""Unit-conversion helpers."""

import pytest

from repro import units


def test_mv_volts_roundtrip():
    assert units.mv_to_volts(980) == pytest.approx(0.980)
    assert units.volts_to_mv(units.mv_to_volts(123.0)) == pytest.approx(123.0)


def test_hours_to_years():
    assert units.hours_to_years(24.0 * 365.25) == pytest.approx(1.0)


def test_bits_to_mbit_uses_decimal_convention():
    assert units.bits_to_mbit(1_000_000) == pytest.approx(1.0)
