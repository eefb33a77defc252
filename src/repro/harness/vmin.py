"""Undervolting characterization: pfail(V) curves and safe Vmin.

Before any beam time, the chip is characterized offline (Section 3.6,
following [49, 57]): each benchmark is executed hundreds of times per
voltage step, walking downward from nominal, and the probability of
failure (pfail) is recorded.  The *safe Vmin* is the lowest voltage at
which every execution completes correctly -- below it, manufacturing
variation (not radiation) breaks execution.

The pfail(V) shape is a logistic in voltage -- the CDF of the chip's
weakest-path failure voltage under process variation.  Parameters are
calibrated to Fig. 4:

* 2.4 GHz: safe Vmin 920 mV, pfail reaching 100 % by 900 mV;
* 900 MHz: safe Vmin 790 mV, with a shorter (~10 mV) failure ramp.

Lower frequency relaxes timing slack, pushing the whole curve down by
~130 mV -- the voltage guardband the paper exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..constants import PMD_NOMINAL_MV, VOLTAGE_STEP_MV
from ..engine import Executor, SerialExecutor, WorkUnit
from ..errors import ConfigurationError
from ..rng import as_generator
from ..telemetry import Telemetry


@dataclass(frozen=True)
class PfailModel:
    """Logistic probability-of-failure curve for one clock frequency.

    pfail(V) = 1 / (1 + exp((V - v50) / width))

    Attributes
    ----------
    freq_mhz:
        The clock frequency the curve belongs to.
    v50_mv:
        Voltage of 50 % failure probability.
    width_mv:
        Logistic width; smaller = sharper ramp.
    """

    freq_mhz: int
    v50_mv: float
    width_mv: float

    def __post_init__(self) -> None:
        if self.width_mv <= 0:
            raise ConfigurationError("logistic width must be positive")

    def pfail(self, voltage_mv: float) -> float:
        """Probability that one execution fails at *voltage_mv*."""
        z = (voltage_mv - self.v50_mv) / self.width_mv
        return float(1.0 / (1.0 + np.exp(z)))

    def sample_run_fails(
        self, voltage_mv: float, rng: np.random.Generator
    ) -> bool:
        """Bernoulli draw: does one execution fail?"""
        return bool(rng.random() < self.pfail(voltage_mv))


#: Calibrated pfail curves for the two studied frequencies (Fig. 4).
#: Parameters chosen so that, at 300 runs per voltage, the safe Vmin is
#: 920 mV (2.4 GHz) / 790 mV (900 MHz) with high probability: pfail at
#: Vmin itself is ~1e-4 (rarely observed), one 5 mV step below it is
#: ~1 % (almost always observed), and pfail saturates at 100 % by
#: 900 mV / 780 mV respectively, matching Fig. 4's ramps.
PFAIL_MODELS: Dict[int, PfailModel] = {
    2400: PfailModel(freq_mhz=2400, v50_mv=910.0, width_mv=1.1),
    900: PfailModel(freq_mhz=900, v50_mv=782.0, width_mv=0.7),
}


@dataclass
class VminResult:
    """Outcome of one characterization sweep.

    Attributes
    ----------
    freq_mhz:
        Characterized frequency.
    safe_vmin_mv:
        Lowest voltage with zero observed failures (and all voltages
        above it also failure-free).
    pfail_curve:
        Measured failure fraction per voltage step, keyed by mV.
    runs_per_voltage:
        Executions performed at each step.
    """

    freq_mhz: int
    safe_vmin_mv: int
    pfail_curve: Dict[int, float] = field(default_factory=dict)
    runs_per_voltage: int = 0

    def guardband_mv(self, nominal_mv: int = PMD_NOMINAL_MV) -> int:
        """The exploitable voltage guardband below nominal."""
        return nominal_mv - self.safe_vmin_mv


class VminCharacterizer:
    """Runs the offline safe-Vmin identification methodology.

    Parameters
    ----------
    model:
        The pfail curve of the target frequency.
    runs_per_voltage:
        Identical executions per voltage step ("hundreds of times",
        Section 4.1).
    """

    def __init__(self, model: PfailModel, runs_per_voltage: int = 300) -> None:
        if runs_per_voltage < 1:
            raise ConfigurationError("need at least one run per voltage")
        self.model = model
        self.runs_per_voltage = runs_per_voltage

    def measure_pfail(self, voltage_mv: int, rng: np.random.Generator) -> float:
        """Empirical pfail at one voltage over the configured run count.

        Vectorized over the run count; ``rng.random(n)`` yields the same
        sequence as ``n`` scalar ``rng.random()`` calls, so results are
        bit-identical to the historical per-run loop.
        """
        p = self.model.pfail(voltage_mv)
        draws = rng.random(self.runs_per_voltage)
        fails = int(np.count_nonzero(draws < p))
        return fails / self.runs_per_voltage

    def characterize(
        self,
        seed: int = 0,
        start_mv: int = PMD_NOMINAL_MV,
        stop_mv: int = 700,
        step_mv: int = VOLTAGE_STEP_MV,
    ) -> VminResult:
        """Walk down from *start_mv* and identify the safe Vmin.

        The sweep continues past the first failure until pfail reaches
        100 % (or *stop_mv*), so the full Fig. 4 curve is recorded.
        """
        if start_mv <= stop_mv:
            raise ConfigurationError("start voltage must exceed stop voltage")
        rng = as_generator(seed, f"vmin-{self.model.freq_mhz}")
        curve: Dict[int, float] = {}
        safe_vmin = start_mv
        seen_failure = False
        voltage = start_mv
        while voltage >= stop_mv:
            pfail = self.measure_pfail(voltage, rng)
            curve[voltage] = pfail
            if pfail == 0.0 and not seen_failure:
                safe_vmin = voltage
            elif pfail > 0.0:
                seen_failure = True
            if pfail >= 1.0:
                break
            voltage -= step_mv
        return VminResult(
            freq_mhz=self.model.freq_mhz,
            safe_vmin_mv=safe_vmin,
            pfail_curve=curve,
            runs_per_voltage=self.runs_per_voltage,
        )


def _characterize_frequency(
    freq_mhz: int, seed: int, runs_per_voltage: int
) -> VminResult:
    """Sweep one frequency (module-level: must pickle)."""
    model = PFAIL_MODELS[freq_mhz]
    return VminCharacterizer(model, runs_per_voltage).characterize(seed)


def characterize_all(
    seed: int = 0,
    runs_per_voltage: int = 300,
    executor: Optional[Executor] = None,
    telemetry: Optional[Telemetry] = None,
) -> Dict[int, VminResult]:
    """Characterize both studied frequencies (the Fig. 4 pair).

    Each frequency sweep is one engine work unit; its stream is derived
    from ``(seed, frequency)`` alone, so serial and parallel executors
    produce identical curves.  A telemetry sink receives one
    ``vmin.sweeps`` count and a ``vmin.safe_mv`` gauge per frequency
    (derived from the merged results, so executor choice cannot change
    them).
    """
    executor = executor or SerialExecutor()
    freqs = list(PFAIL_MODELS)
    units = [
        WorkUnit(
            key=f"vmin-{freq}",
            fn=_characterize_frequency,
            args=(freq, seed, runs_per_voltage),
        )
        for freq in freqs
    ]
    results = executor.map(units, telemetry=telemetry)
    characterized = dict(zip(freqs, results))
    if telemetry is not None:
        for freq, result in characterized.items():
            telemetry.count("vmin.sweeps", freq_mhz=freq)
            telemetry.count(
                "vmin.runs", len(result.pfail_curve) * runs_per_voltage,
                freq_mhz=freq,
            )
            telemetry.set_gauge(
                "vmin.safe_mv", result.safe_vmin_mv, freq_mhz=freq
            )
    return characterized
