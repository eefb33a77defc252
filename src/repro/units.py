"""Small unit-conversion helpers.

The codebase standardizes on:

* voltages in **millivolts** (integers, matching the 5 mV regulator step),
* frequencies in **MHz** (integers),
* durations in **seconds** (floats),
* fluence in **neutrons / cm^2** (floats),
* flux in **neutrons / cm^2 / s** (floats).

These helpers exist so call sites read unambiguously and conversions are
done in exactly one place.
"""

from __future__ import annotations

from .constants import SECONDS_PER_HOUR, HOURS_PER_YEAR


def mv_to_volts(millivolts: float) -> float:
    """Convert millivolts to volts."""
    return millivolts / 1000.0


def volts_to_mv(volts: float) -> float:
    """Convert volts to millivolts."""
    return volts * 1000.0


def seconds_to_hours(seconds: float) -> float:
    """Convert seconds to hours."""
    return seconds / SECONDS_PER_HOUR


def hours_to_years(hours: float) -> float:
    """Convert hours to (Julian) years."""
    return hours / HOURS_PER_YEAR


def bits_to_mbit(bits: float) -> float:
    """Convert bits to megabits (10^6 bits, the SER convention)."""
    return bits / 1.0e6
