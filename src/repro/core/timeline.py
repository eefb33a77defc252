"""Event-timeline analytics: arrival statistics and accumulation checks.

Section 3.3's central methodological constraint is that benchmark runs
stay short enough that *multiple* radiation events almost never land in
one run -- beam events must look like a homogeneous Poisson process,
not bursts.  These analytics verify that property on a session's event
stream (and would expose a broken injector or a flux excursion in a
real campaign's logs):

* exponential inter-arrival check (Kolmogorov-Smirnov),
* per-run multiplicity histogram vs the Poisson prediction,
* burstiness (index of dispersion of windowed counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class ArrivalCheck:
    """Result of the exponential inter-arrival test.

    Attributes
    ----------
    events:
        Number of events analyzed.
    mean_interarrival_s:
        Mean spacing.
    ks_pvalue:
        p-value of the KS test against the fitted exponential; small
        values reject the homogeneous-Poisson hypothesis.
    """

    events: int
    mean_interarrival_s: float
    ks_pvalue: float

    def is_poisson_like(self, alpha: float = 0.01) -> bool:
        """Accept homogeneity unless the KS test rejects at *alpha*."""
        return self.ks_pvalue >= alpha


def check_interarrivals(times_s: Sequence[float]) -> ArrivalCheck:
    """KS-test the event stream's spacings against an exponential."""
    times = np.sort(np.asarray(list(times_s), dtype=float))
    if times.size < 10:
        raise AnalysisError("need at least 10 events for an arrival check")
    gaps = np.diff(times)
    gaps = gaps[gaps > 0]
    if gaps.size < 5:
        raise AnalysisError("too many simultaneous events to test spacings")
    mean = float(gaps.mean())
    from scipy import stats  # report-only; kept off the verbs' import path

    _stat, pvalue = stats.kstest(gaps, "expon", args=(0, mean))
    return ArrivalCheck(
        events=int(times.size),
        mean_interarrival_s=mean,
        ks_pvalue=float(pvalue),
    )


def run_multiplicity_histogram(
    event_times_s: Sequence[float],
    run_starts_s: Sequence[float],
    run_durations_s: Sequence[float],
) -> Dict[int, int]:
    """Events-per-run histogram (the anti-accumulation check).

    Section 3.3 sizes the benchmarks so that runs with >= 2 events are
    rare; the histogram makes that measurable.
    """
    starts = np.asarray(list(run_starts_s), dtype=float)
    durations = np.asarray(list(run_durations_s), dtype=float)
    if starts.size != durations.size:
        raise AnalysisError("starts and durations must align")
    if starts.size == 0:
        raise AnalysisError("need at least one run")
    events = np.sort(np.asarray(list(event_times_s), dtype=float))
    histogram: Dict[int, int] = {}
    for start, duration in zip(starts, durations):
        count = int(
            np.searchsorted(events, start + duration)
            - np.searchsorted(events, start)
        )
        histogram[count] = histogram.get(count, 0) + 1
    return histogram


def multi_event_run_fraction(histogram: Dict[int, int]) -> float:
    """Fraction of runs that saw two or more events."""
    total = sum(histogram.values())
    if total == 0:
        raise AnalysisError("empty histogram")
    multi = sum(n for count, n in histogram.items() if count >= 2)
    return multi / total


def dispersion_index(
    event_times_s: Sequence[float],
    horizon_s: float,
    window_s: float,
) -> float:
    """Index of dispersion (variance/mean) of windowed event counts.

    1.0 for a Poisson process; substantially above 1 indicates bursts
    (e.g. a beam excursion), below 1 indicates regularity.
    """
    if horizon_s <= 0 or window_s <= 0 or window_s > horizon_s:
        raise AnalysisError("need 0 < window <= horizon")
    events = np.asarray(list(event_times_s), dtype=float)
    edges = np.arange(0.0, horizon_s + window_s, window_s)
    counts, _ = np.histogram(events, bins=edges)
    if counts.size < 5:
        raise AnalysisError("need at least 5 windows")
    mean = counts.mean()
    if mean == 0:
        raise AnalysisError("no events in the horizon")
    return float(counts.var(ddof=1) / mean)


def expected_multiplicity(
    rate_per_min: float, run_duration_s: float
) -> Dict[int, float]:
    """Poisson prediction for the per-run multiplicity distribution."""
    if rate_per_min < 0 or run_duration_s <= 0:
        raise AnalysisError("rate must be nonnegative, duration positive")
    lam = rate_per_min * run_duration_s / 60.0
    from scipy import stats  # report-only; kept off the verbs' import path

    return {k: float(stats.poisson.pmf(k, lam)) for k in range(5)}
