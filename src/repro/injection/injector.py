"""Beam-driven Monte-Carlo upset injection over the chip's SRAM arrays.

For one exposure segment the injector:

1. computes the expected *detected* upset rate per cache level from the
   calibrated :class:`~repro.injection.calibration.LevelRateModel`
   (scaled by the actual beam flux and the running benchmark's Fig. 5
   share),
2. draws a Poisson event count per level,
3. realizes each event as a physical MBU cluster striking a uniformly
   chosen word of a capacity-weighted array of that level,
4. pushes the flips through the array's interleaving and protection
   codec (so CE/UE severity *emerges* from the bit math), and
5. logs the resulting EDAC records.

The emergent uncorrected-error fraction lands on the paper's ~4.7 %
L3-only UE share because the L3 is the one non-interleaved array and
the MBU model's multi-cell probability is calibrated to that figure.

Two realization paths exist:

* the **vectorized** path (default) batches the Poisson draws across
  levels, the array/word selection, and the cluster-size sampling into
  whole-array numpy operations, caches the per-(operating point,
  benchmark, flux) rate vectors, and classifies severities through
  :meth:`~repro.sram.array.SramArray.classify_flip_count` -- falling
  back to the real codec only for the rare multi-bit words where the
  outcome depends on concrete bit positions;
* the **scalar** path is the original per-event loop through
  :meth:`SramArray.strike`/:meth:`SramArray.access`, kept as the
  reference implementation and as the baseline for the engine
  benchmarks.

Both paths sample the same distributions (the benches pin those, not
the draw sequences), and each is individually deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..constants import TNF_HALO_FLUX_PER_CM2_S
from ..errors import InjectionError
from ..soc.edac import EdacSeverity
from ..soc.geometry import CacheLevel
from ..soc.xgene2 import XGene2
from ..sram.array import UpsetRecord
from ..sram.mbu import MbuCluster, MbuModel
from ..sram.protection import DecodeStatus
from ..telemetry import MetricsRegistry
from ..workloads.profiles import benchmark_rate_share
from .calibration import LevelRateModel
from .events import UpsetEvent

#: The per-word fold of a single-cell cluster -- precomputed because
#: the overwhelming majority of strikes are single-bit.
_SINGLE_CELL: Tuple[Tuple[int, int], ...] = ((0, 1),)


@dataclass
class InjectionSummary:
    """Aggregate result of one exposure segment.

    Attributes
    ----------
    upsets:
        Every realized upset event (one per affected word).
    duration_s:
        Exposure length in seconds.
    counts:
        Histogram over (cache level, severity).
    """

    upsets: List[UpsetEvent] = field(default_factory=list)
    duration_s: float = 0.0
    counts: Dict[Tuple[CacheLevel, EdacSeverity], int] = field(
        default_factory=dict
    )

    @property
    def total_upsets(self) -> int:
        """Total detected upsets in the segment.

        Live summaries carry the full event list; summaries reloaded
        from disk (:mod:`repro.io`) may carry only the per-level counts
        -- the two agree whenever both are present, since every appended
        event also increments its count bucket.
        """
        if self.upsets:
            return len(self.upsets)
        return sum(self.counts.values())

    def count(
        self,
        level: Optional[CacheLevel] = None,
        severity: Optional[EdacSeverity] = None,
    ) -> int:
        """Count upsets filtered by level and/or severity."""
        return sum(
            n
            for (lvl, sev), n in self.counts.items()
            if (level is None or lvl == level)
            and (severity is None or sev == severity)
        )

    def merge(self, other: "InjectionSummary") -> None:
        """Fold another segment's results into this one, in place."""
        self.upsets.extend(other.upsets)
        self.duration_s += other.duration_s
        for key, n in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + n


class BeamInjector:
    """Samples beam-induced SRAM upsets into an :class:`XGene2` model.

    Parameters
    ----------
    chip:
        The chip model to strike.
    rate_model:
        Calibrated per-level rate model (defaults to the paper fit).
    vectorized:
        Use the batched numpy realization path (default).  ``False``
        selects the original per-event loop; both sample the same
        distributions.
    metrics:
        Optional :class:`~repro.telemetry.MetricsRegistry` the injector
        counts exposures, drawn events and realized upsets into.
        Purely observational: it reads results, never an RNG stream, so
        injection output is byte-identical with or without it.
    """

    def __init__(
        self,
        chip: XGene2,
        rate_model: LevelRateModel = None,
        vectorized: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.chip = chip
        self.rate_model = rate_model or LevelRateModel()
        # Physical cluster model, calibrated to the L3 UE share.
        self.mbu_model = MbuModel()
        self.vectorized = vectorized
        self.metrics = metrics
        # Capacity-weighted array choice within each level.
        self._level_arrays: Dict[CacheLevel, Tuple[List[str], np.ndarray]] = {}
        self._arrays: Dict[CacheLevel, list] = {}
        self._words: Dict[CacheLevel, np.ndarray] = {}
        for level in CacheLevel:
            arrays = chip.arrays_by_level(level)
            if not arrays:
                continue
            names = [a.name for a in arrays]
            weights = np.array([a.stored_bits for a in arrays], dtype=float)
            self._level_arrays[level] = (names, weights / weights.sum())
            self._arrays[level] = list(arrays)
            self._words[level] = np.array(
                [a.geometry.words for a in arrays], dtype=np.int64
            )
        #: Levels with at least one array, in enum (flight) order.
        self._levels: List[CacheLevel] = list(self._level_arrays)
        # (benchmark, pmd_mv, soc_mv, flux) -> expected upsets/min per
        # level, aligned with self._levels.  Rates are pure functions of
        # that key, and a session re-runs the same handful of keys
        # thousands of times.
        self._rate_cache: Dict[tuple, np.ndarray] = {}
        # Pre-bound counter handles: the hot path pays one attribute
        # load and an integer add, never a registry lookup.
        self._exposures_counter = None
        self._event_counters: Dict[CacheLevel, object] = {}
        self._upset_counters: Dict[tuple, object] = {}
        if metrics is not None:
            self._exposures_counter = metrics.counter("injector.exposures")
            self._event_counters = {
                level: metrics.counter("injector.events", level=level.value)
                for level in self._levels
            }

    def expected_rate_per_min(
        self,
        level: CacheLevel,
        benchmark: Optional[str] = None,
        flux_per_cm2_s: float = TNF_HALO_FLUX_PER_CM2_S,
    ) -> float:
        """Expected detected upsets/minute at one level, current voltages."""
        point = self.chip.operating_point()
        rate = sum(
            self.rate_model.rate_per_min(
                level, corrected, point.pmd_mv, point.soc_mv, flux_per_cm2_s
            )
            for corrected in (True, False)
        )
        if benchmark is not None:
            rate *= benchmark_rate_share(benchmark, point.pmd_mv)
        return rate

    def _expected_rates(
        self,
        benchmark: Optional[str],
        flux_per_cm2_s: float,
    ) -> np.ndarray:
        """Cached expected upsets/minute for every level (flight order)."""
        point = self.chip.operating_point()
        key = (benchmark, point.pmd_mv, point.soc_mv, flux_per_cm2_s)
        rates = self._rate_cache.get(key)
        if rates is None:
            rates = np.array(
                [
                    self.expected_rate_per_min(
                        level, benchmark, flux_per_cm2_s
                    )
                    for level in self._levels
                ],
                dtype=float,
            )
            self._rate_cache[key] = rates
        return rates

    def _undervolt_fraction(self, level: CacheLevel, pmd_mv: float, soc_mv: float) -> float:
        """Relative undervolt of the domain feeding *level*.

        Delegated to the rate model so the fraction is taken against
        whatever domain nominals the model was built for (the paper's
        980/950 mV by default, the node's own on scaled chips).
        """
        return self.rate_model.undervolt_fraction(level, pmd_mv, soc_mv)

    def expose(
        self,
        duration_s: float,
        rng: np.random.Generator,
        benchmark: Optional[str] = None,
        flux_per_cm2_s: float = TNF_HALO_FLUX_PER_CM2_S,
        time_offset_s: float = 0.0,
    ) -> InjectionSummary:
        """Run one exposure segment and return its upset summary.

        Every realized upset is also appended to the chip's EDAC log.
        """
        if duration_s < 0:
            raise InjectionError("exposure duration must be nonnegative")
        if self.vectorized:
            summary = self._expose_vectorized(
                duration_s, rng, benchmark, flux_per_cm2_s, time_offset_s
            )
        else:
            summary = self._expose_scalar(
                duration_s, rng, benchmark, flux_per_cm2_s, time_offset_s
            )
        if self._exposures_counter is not None:
            self._exposures_counter.inc()
            self._count_upsets(summary)
        return summary

    def _count_upsets(self, summary: InjectionSummary) -> None:
        """Meter the realized upsets, batched per (level, severity).

        Counting off ``summary.counts`` after the segment (rather than
        per event inside :meth:`_log_and_collect`) keeps the hot loop
        free of instrumentation; the totals are identical because every
        collected upset also bumps its count bucket.
        """
        for (level, severity), n in summary.counts.items():
            key = (level, severity)
            counter = self._upset_counters.get(key)
            if counter is None:
                counter = self._upset_counters[key] = self.metrics.counter(
                    "injector.upsets",
                    level=level.value,
                    severity=severity.value,
                )
            counter.inc(n)

    # -- vectorized hot path ----------------------------------------------------

    def _expose_vectorized(
        self,
        duration_s: float,
        rng: np.random.Generator,
        benchmark: Optional[str],
        flux_per_cm2_s: float,
        time_offset_s: float,
    ) -> InjectionSummary:
        summary = InjectionSummary(duration_s=duration_s)
        point = self.chip.operating_point()
        expected = self._expected_rates(benchmark, flux_per_cm2_s) * (
            duration_s / 60.0
        )
        # One batched Poisson draw across all levels.
        n_events = rng.poisson(expected) if expected.size else np.empty(0)
        for level, n in zip(self._levels, n_events):
            n = int(n)
            if n == 0:
                continue
            if self._event_counters:
                self._event_counters[level].inc(n)
            arrays = self._arrays[level]
            _names, probs = self._level_arrays[level]
            times = np.sort(rng.uniform(0.0, duration_s, size=n))
            undervolt = self._undervolt_fraction(
                level, point.pmd_mv, point.soc_mv
            )
            if len(arrays) > 1:
                arr_idx = rng.choice(len(arrays), size=n, p=probs)
            else:
                arr_idx = np.zeros(n, dtype=np.int64)
            struck = rng.integers(0, self._words[level][arr_idx])
            sizes = self.mbu_model.sample_sizes(rng, undervolt, n)
            for i in range(n):
                array = arrays[int(arr_idx[i])]
                time_s = float(times[i]) + time_offset_s
                size = int(sizes[i])
                if size == 1:
                    per_word = _SINGLE_CELL
                else:
                    per_word = self.mbu_model.split_by_interleaving(
                        MbuCluster(size=size, offsets=tuple(range(size))),
                        array.geometry.interleave,
                        array.codec.word_bits,
                    )
                for word_delta, nbits in per_word:
                    target = (int(struck[i]) + word_delta) % array.geometry.words
                    status = array.classify_flip_count(nbits, rng)
                    if status in (DecodeStatus.SILENT, DecodeStatus.CLEAN):
                        continue
                    record = UpsetRecord(
                        array=array.name,
                        word=target,
                        flipped_bits=min(nbits, array.codec.word_bits),
                        status=status,
                    )
                    self._log_and_collect(record, time_s, level, summary)
        return summary

    # -- scalar reference path --------------------------------------------------

    def _expose_scalar(
        self,
        duration_s: float,
        rng: np.random.Generator,
        benchmark: Optional[str],
        flux_per_cm2_s: float,
        time_offset_s: float,
    ) -> InjectionSummary:
        summary = InjectionSummary(duration_s=duration_s)
        point = self.chip.operating_point()
        for level, (names, probs) in self._level_arrays.items():
            rate_per_min = self.expected_rate_per_min(
                level, benchmark, flux_per_cm2_s
            )
            expected = rate_per_min * duration_s / 60.0
            n_events = int(rng.poisson(expected))
            if n_events == 0:
                continue
            if self._event_counters:
                self._event_counters[level].inc(n_events)
            times = np.sort(rng.uniform(0.0, duration_s, size=n_events))
            undervolt = self._undervolt_fraction(
                level, point.pmd_mv, point.soc_mv
            )
            for t in times:
                self._realize_event(
                    level, names, probs, float(t) + time_offset_s,
                    undervolt, rng, summary,
                )
        return summary

    def _realize_event(
        self,
        level: CacheLevel,
        names: List[str],
        probs: np.ndarray,
        time_s: float,
        undervolt: float,
        rng: np.random.Generator,
        summary: InjectionSummary,
    ) -> None:
        array = self.chip.array(names[int(rng.choice(len(names), p=probs))])
        word = int(rng.integers(0, array.geometry.words))
        cluster = self.mbu_model.sample_cluster(rng, undervolt)
        affected = array.strike(word, cluster, self.mbu_model, rng)
        for target_word, _bits in affected:
            _result, record = array.access(target_word)
            if record is None:
                continue
            self._log_and_collect(record, time_s, level, summary)

    # -- shared bookkeeping -----------------------------------------------------

    def _log_and_collect(
        self,
        record: UpsetRecord,
        time_s: float,
        level: CacheLevel,
        summary: InjectionSummary,
    ) -> None:
        """Push one upset record through the EDAC log into the summary."""
        edac_record = self.chip.edac.log_upset(time_s, record, level)
        if edac_record is None:
            return
        summary.upsets.append(
            UpsetEvent(
                time_s=time_s,
                array=record.array,
                level=level.value,
                bits=record.flipped_bits,
                corrected=edac_record.severity is EdacSeverity.CE,
            )
        )
        key = (level, edac_record.severity)
        summary.counts[key] = summary.counts.get(key, 0) + 1
