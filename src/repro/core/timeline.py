"""Event-timeline analytics: the arrival-statistics check.

Section 3.3's central methodological constraint is that benchmark runs
stay short enough that *multiple* radiation events almost never land in
one run -- beam events must look like a homogeneous Poisson process,
not bursts.  The exponential inter-arrival check (Kolmogorov-Smirnov)
verifies that property on a session's event stream (and would expose a
broken injector or a flux excursion in a real campaign's logs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
