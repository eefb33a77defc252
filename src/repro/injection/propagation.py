"""Upset-to-software outcome model.

The paper's crucial end-to-end observation (Sections 4.4 and 6) is that
while cache upsets are almost always absorbed by parity/SECDED, the
*software-visible* failure mix shifts dramatically with voltage: crash
rates fall and SDC rates explode as the PMD approaches Vmin -- because
the SDC-producing faults live in unprotected core logic whose soft-error
susceptibility grows with undervolt (design implication #4).

This model samples software failures directly from the calibrated
category rates (:class:`~repro.injection.calibration.OutcomeMixModel`),
independent of the SRAM upset stream -- matching the paper's finding
that SDCs are *not* caused by SRAM upsets (the protected arrays recover
them), with the rare "SDC with corrected-error notification" overlap
drawn from the Fig. 12/13 probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Tuple

import numpy as np

from ..constants import TNF_HALO_FLUX_PER_CM2_S
from ..errors import InjectionError
from ..soc.dvfs import OperatingPoint
from .calibration import OutcomeMixModel
from .events import FailureEvent, OutcomeKind

_CATEGORY_TO_KIND = {
    "AppCrash": OutcomeKind.APP_CRASH,
    "SysCrash": OutcomeKind.SYS_CRASH,
    "SDC": OutcomeKind.SDC,
}


@dataclass(frozen=True)
class OutcomeModel:
    """Samples software-level failure events for an exposure segment."""

    mix: OutcomeMixModel = OutcomeMixModel()
    reference_flux: float = TNF_HALO_FLUX_PER_CM2_S

    def __post_init__(self) -> None:
        # A session evaluates the same (freq, pmd, flux) key for every
        # one of its thousands of benchmark runs; the log-linear interp
        # behind it dominated the campaign profile before caching.  The
        # dataclass is frozen, so the cache is attached via the
        # object-level escape hatch.
        object.__setattr__(self, "_rate_cache", {})

    def rates_per_min(
        self,
        point: OperatingPoint,
        flux_per_cm2_s: float = TNF_HALO_FLUX_PER_CM2_S,
    ) -> Mapping[OutcomeKind, float]:
        """Expected failures/minute per category at an operating point.

        The mapping is the model's cached one, in flight order; callers
        read it and never mutate it.
        """
        if flux_per_cm2_s < 0:
            raise InjectionError("flux must be nonnegative")
        key = (point.freq_mhz, point.pmd_mv, flux_per_cm2_s)
        cached = self._rate_cache.get(key)
        if cached is None:
            scale = flux_per_cm2_s / self.reference_flux
            raw = self.mix.rates_per_min(point.freq_mhz, point.pmd_mv)
            cached = {
                _CATEGORY_TO_KIND[cat]: rate * scale
                for cat, rate in raw.items()
            }
            self._rate_cache[key] = cached
        return cached

    def _notification_probability(
        self, freq_mhz: int, pmd_mv: int
    ) -> float:
        """Cached P(corrected-error notification | SDC)."""
        key = ("notify", freq_mhz, pmd_mv)
        cached = self._rate_cache.get(key)
        if cached is None:
            cached = self.mix.sdc_notification_probability(freq_mhz, pmd_mv)
            self._rate_cache[key] = cached
        return cached

    def poisson_means(
        self,
        point: OperatingPoint,
        duration_s: float,
        flux_per_cm2_s: float = TNF_HALO_FLUX_PER_CM2_S,
    ) -> Tuple[float, ...]:
        """Expected failures per category over one segment (flight order).

        The one source of the model's Poisson means: the per-run draws
        and a session's look-ahead both take them from here.
        """
        return tuple(
            rate * duration_s / 60.0
            for rate in self.rates_per_min(point, flux_per_cm2_s).values()
        )

    def sample_failures(
        self,
        point: OperatingPoint,
        duration_s: float,
        benchmark: str,
        rng: np.random.Generator,
        flux_per_cm2_s: float = TNF_HALO_FLUX_PER_CM2_S,
        time_offset_s: float = 0.0,
    ) -> List[FailureEvent]:
        """Sample the failure events of one exposure segment.

        Counts per category are Poisson with the calibrated rates;
        event times are uniform over the segment; SDCs carry a
        hardware-notification flag with the Fig. 12/13 probability.
        """
        if duration_s < 0:
            raise InjectionError("duration must be nonnegative")
        rates = self.rates_per_min(point, flux_per_cm2_s)
        # Every category's count first, then the events: the draw order
        # of one batched Poisson draw over the categories.
        counts = [
            rng.poisson(mean)
            for mean in self.poisson_means(point, duration_s, flux_per_cm2_s)
        ]
        events: List[FailureEvent] = []
        for kind, count in zip(rates, counts):
            if count == 0:
                continue
            times = rng.uniform(0.0, duration_s, size=count)
            if kind is OutcomeKind.SDC:
                notified = rng.random(count) < self._notification_probability(
                    point.freq_mhz, point.pmd_mv
                )
            else:
                notified = np.zeros(count, dtype=bool)
            for t, n in zip(times, notified):
                events.append(
                    FailureEvent(
                        time_s=float(t) + time_offset_s,
                        benchmark=benchmark,
                        kind=kind,
                        hw_notified=bool(n),
                    )
                )
        events.sort(key=lambda e: e.time_s)
        return events
