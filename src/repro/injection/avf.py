"""Architectural-vulnerability-factor (AVF) utilities.

Design implication #3 of the paper: the measured cache susceptibility
increases can be combined with a structure's size, a technology's raw
FIT/bit, and a microarchitectural-fault-injection AVF to estimate the
structure's FIT at scaled voltages:

    FIT(structure, V) = bits/Mbit * rawFIT_per_Mbit * AVF
                                  * susceptibility_multiplier(V)

These helpers implement that pipeline so fault-injection studies can
consume the reproduction's susceptibility curves directly.
"""

from __future__ import annotations

from ..errors import AnalysisError
from ..units import bits_to_mbit


def structure_fit(
    bits: int,
    raw_fit_per_mbit: float,
    avf: float,
) -> float:
    """Baseline FIT of a structure at nominal voltage.

    Parameters
    ----------
    bits:
        Structure capacity in bits.
    raw_fit_per_mbit:
        Technology raw SER, FIT per Mbit (~15 for a static 28 nm test
        per the [83] reference; this library measures 2.08-2.45 under
        workload masking).
    avf:
        Architectural vulnerability factor in [0, 1].
    """
    if bits < 0:
        raise AnalysisError("bits must be nonnegative")
    if raw_fit_per_mbit < 0:
        raise AnalysisError("raw FIT must be nonnegative")
    if not 0.0 <= avf <= 1.0:
        raise AnalysisError("AVF must be in [0, 1]")
    return bits_to_mbit(bits) * raw_fit_per_mbit * avf


def scale_avf_fit(nominal_fit: float, susceptibility_multiplier: float) -> float:
    """Scale a nominal-voltage FIT by a measured susceptibility increase.

    *susceptibility_multiplier* is rate(V)/rate(V_nom) as produced by
    :class:`repro.injection.calibration.LevelRateModel` or the Fig. 10
    susceptibility series.
    """
    if nominal_fit < 0:
        raise AnalysisError("FIT must be nonnegative")
    if susceptibility_multiplier < 0:
        raise AnalysisError("multiplier must be nonnegative")
    return nominal_fit * susceptibility_multiplier
