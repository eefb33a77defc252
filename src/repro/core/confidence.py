"""Confidence intervals for radiation-test statistics.

All error bars in the paper use a 95 % confidence level (Section 3.5).
Event counts in beam testing are Poisson; the exact (Garwood)
chi-square interval is the standard choice in SEE test guidelines
(JESD89B).  Failure probabilities (pfail) are binomial; the Wilson
score interval behaves well at the extreme proportions Fig. 4 probes.

The quantiles come from the :mod:`scipy.special` ufuncs that
``scipy.stats`` evaluates for them, so each bound equals the
``scipy.stats`` value bit for bit without importing ``scipy.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy import special

from ..constants import CONFIDENCE_LEVEL
from ..errors import AnalysisError


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval around a point estimate."""

    value: float
    lower: float
    upper: float
    level: float = CONFIDENCE_LEVEL

    def __post_init__(self) -> None:
        if not self.lower <= self.value <= self.upper:
            raise AnalysisError(
                f"interval [{self.lower}, {self.upper}] does not contain "
                f"the estimate {self.value}"
            )
        if not 0 < self.level < 1:
            raise AnalysisError("confidence level must be in (0, 1)")

    @property
    def halfwidth(self) -> float:
        """Half the interval span (the symmetric error-bar length)."""
        return 0.5 * (self.upper - self.lower)

    def scaled(self, factor: float) -> "ConfidenceInterval":
        """Scale the whole interval (e.g. counts -> rates -> FIT)."""
        if factor < 0:
            raise AnalysisError("scale factor must be nonnegative")
        return ConfidenceInterval(
            value=self.value * factor,
            lower=self.lower * factor,
            upper=self.upper * factor,
            level=self.level,
        )


def poisson_interval(
    count: int, level: float = CONFIDENCE_LEVEL
) -> ConfidenceInterval:
    """Exact (Garwood) interval for a Poisson count.

    lower = chi2.ppf(alpha/2, 2k) / 2     (0 when k = 0)
    upper = chi2.ppf(1 - alpha/2, 2k + 2) / 2

    ``chi2.ppf(q, 2k) / 2`` is ``gammaincinv(k, q)`` exactly: scipy
    evaluates it as ``2 * gammaincinv(2k / 2, q)``.
    """
    if count < 0:
        raise AnalysisError("count must be nonnegative")
    if not 0 < level < 1:
        raise AnalysisError("confidence level must be in (0, 1)")
    alpha = 1.0 - level
    lower = 0.0 if count == 0 else special.gammaincinv(count, alpha / 2.0)
    upper = special.gammaincinv(count + 1, 1.0 - alpha / 2.0)
    return ConfidenceInterval(
        value=float(count), lower=float(lower), upper=float(upper), level=level
    )


def poisson_rate_interval(
    count: int, exposure: float, level: float = CONFIDENCE_LEVEL
) -> ConfidenceInterval:
    """Interval on a Poisson rate = count / exposure."""
    if exposure <= 0:
        raise AnalysisError("exposure must be positive")
    return poisson_interval(count, level).scaled(1.0 / exposure)


def _check_binomial_args(successes: int, trials: int, level: float) -> None:
    if trials <= 0:
        raise AnalysisError("trials must be positive")
    if not 0 <= successes <= trials:
        raise AnalysisError("successes must be within [0, trials]")
    if not 0 < level < 1:
        raise AnalysisError("confidence level must be in (0, 1)")


def binomial_interval(
    successes: int, trials: int, level: float = CONFIDENCE_LEVEL
) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion."""
    _check_binomial_args(successes, trials, level)
    z = special.ndtri(0.5 + level / 2.0)  # scipy.stats.norm.ppf
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = (
        z
        * ((p * (1 - p) / trials + z * z / (4 * trials * trials)) ** 0.5)
        / denom
    )
    # Clamp against floating-point residue at the extremes (p = 0 or 1,
    # where center -/+ margin should equal p exactly).
    lower = min(max(0.0, float(center - margin)), p)
    upper = max(min(1.0, float(center + margin)), p)
    return ConfidenceInterval(value=p, lower=lower, upper=upper, level=level)


def clopper_pearson_interval(
    successes: int, trials: int, level: float = CONFIDENCE_LEVEL
) -> ConfidenceInterval:
    """Exact (Clopper-Pearson) interval for a binomial proportion.

    Conservative by construction -- coverage is always >= *level* --
    which is the safe choice at the handful-of-events trial counts the
    Figs. 12-13 splits produce (where Wilson can under-cover).

    lower = Beta.ppf(alpha/2, k, n-k+1)        (0 when k = 0)
    upper = Beta.ppf(1-alpha/2, k+1, n-k)      (1 when k = n)

    ``Beta.ppf(q, a, b)`` is the regularized incomplete beta inverse
    ``betaincinv(a, b, q)``.
    """
    _check_binomial_args(successes, trials, level)
    alpha = 1.0 - level
    p = successes / trials
    if successes == 0:
        lower = 0.0
    else:
        lower = float(
            special.betaincinv(successes, trials - successes + 1, alpha / 2.0)
        )
    if successes == trials:
        upper = 1.0
    else:
        upper = float(
            special.betaincinv(
                successes + 1, trials - successes, 1.0 - alpha / 2.0
            )
        )
    return ConfidenceInterval(
        value=p, lower=min(lower, p), upper=max(upper, p), level=level
    )
