"""Order statistics and closed-loop latency accounting for the benchmark."""

from __future__ import annotations

import math
import statistics
import threading
from typing import List, Optional, Sequence

#: Percentiles considered for a timing's reported tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= p% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(math.ceil(p / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """How many of *n* samples lie above the nearest-rank *p* percentile."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least ten of *n* samples beyond it."""
    return next((p for p in TAIL_LADDER if beyond(n, p) >= 10), None)


def summarize(values: Sequence[float]) -> dict:
    """Median, the highest percentile with ten samples beyond, and the count."""
    summary = {"n": len(values), "median": statistics.median(values)}
    tail = tail_percentile(len(values))
    if tail is not None:
        summary[f"p{tail:g}"] = percentile(values, tail)
    return summary


class ClosedLoop:
    """Latency book of a closed-loop load generator.

    Each client sends its next job only after the previous one
    completed, so a job's latency runs from the start of its submit to
    its completion.  A failed or refused job counts as missing any
    latency limit: it enters the latency samples as *limit_s*, the
    longest the generator waits for one job.
    """

    def __init__(self, limit_s: float) -> None:
        self.limit_s = limit_s
        self.jobs: List[tuple] = []
        self._lock = threading.Lock()

    def record(self, submitted: float, completed: float, ok: bool) -> None:
        with self._lock:
            self.jobs.append((submitted, completed, ok))

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, ok in self.jobs if not ok)

    def latencies(self) -> List[float]:
        return [
            done - sent if ok else self.limit_s for sent, done, ok in self.jobs
        ]

    def span(self) -> tuple:
        """First submit and last completion: the loop's makespan."""
        return (min(sent for sent, _, _ in self.jobs), max(done for _, done, _ in self.jobs))
