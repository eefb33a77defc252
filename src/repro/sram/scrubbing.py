"""Scrubbing policy analysis for SECDED-protected arrays.

SECDED corrects one bit per word, so a word that collects *two*
independent single-bit upsets between consecutive reads becomes
uncorrectable -- exactly the accumulation the paper's short class-A
benchmarks were chosen to avoid (Section 3.3).  Hardware patrol
scrubbing bounds that window: this module quantifies the
accumulated-DUE rate at a scrub interval, for any voltage setting via
the calibrated per-level rates.

Model: an array of ``W`` words whose per-word upset rate is
``lambda_w`` (1/s).  Within a scrub interval ``T``, the probability a
given word collects >= 2 hits is ~ (lambda_w*T)^2 / 2 (Poisson,
rare-event), so the chip-level accumulated-DUE rate is

    R_acc(T) = W * lambda_w^2 * T / 2        [1/s]

which grows linearly in T.  MBU-induced DUEs (a single strike flipping
2+ bits of one word) are independent of T and set the noise floor that
makes ultra-aggressive scrubbing pointless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ScrubbingModel:
    """Accumulation vs scrubbing for one SECDED array.

    Attributes
    ----------
    words:
        Number of protected words.
    word_upset_rate_per_s:
        Single-bit upset rate per word (1/s) -- environment-dependent;
        derive it from the calibrated level rates divided by word count.
    mbu_due_rate_per_s:
        Rate of instantaneous multi-bit DUEs (scrub-independent floor).
    scrub_energy_j:
        Energy of one full-array scrub sweep.
    """

    words: int
    word_upset_rate_per_s: float
    mbu_due_rate_per_s: float = 0.0
    scrub_energy_j: float = 0.05

    def __post_init__(self) -> None:
        if self.words <= 0:
            raise ConfigurationError("word count must be positive")
        if self.word_upset_rate_per_s < 0:
            raise ConfigurationError("upset rate must be nonnegative")
        if self.mbu_due_rate_per_s < 0:
            raise ConfigurationError("MBU DUE rate must be nonnegative")
        if self.scrub_energy_j <= 0:
            raise ConfigurationError("scrub energy must be positive")

    # -- accumulation ---------------------------------------------------------

    def word_double_hit_probability(self, interval_s: float) -> float:
        """P(one word collects >= 2 hits within one scrub interval)."""
        if interval_s < 0:
            raise ConfigurationError("interval must be nonnegative")
        lam = self.word_upset_rate_per_s * interval_s
        # Exact Poisson P(>=2) = 1 - e^-lam (1 + lam), written with
        # expm1 so tiny lam does not cancel to zero in doubles.
        return -math.expm1(-lam) - lam * math.exp(-lam)

    def accumulated_due_rate_per_s(self, interval_s: float) -> float:
        """Chip-level accumulated-DUE rate at a scrub interval (1/s)."""
        if interval_s <= 0:
            raise ConfigurationError("interval must be positive")
        per_word = self.word_double_hit_probability(interval_s)
        return self.words * per_word / interval_s


def model_from_level_rate(
    words: int,
    level_rate_per_min: float,
    mbu_fraction: float = 0.047,
    scrub_energy_j: float = 0.05,
) -> ScrubbingModel:
    """Build a scrubbing model from a calibrated level rate.

    Parameters
    ----------
    words:
        Words in the array.
    level_rate_per_min:
        Detected upsets/minute for the array (e.g. the L3's 0.803 at
        nominal under the TNF halo flux, or the NYC-scaled equivalent).
    mbu_fraction:
        Fraction of strikes that are multi-bit in the same word (the
        L3's ~4.7 % UE share).
    """
    if words <= 0:
        raise ConfigurationError("word count must be positive")
    if level_rate_per_min < 0:
        raise ConfigurationError("rate must be nonnegative")
    if not 0 <= mbu_fraction < 1:
        raise ConfigurationError("MBU fraction must be in [0, 1)")
    total_per_s = level_rate_per_min / 60.0
    sbu_per_s = total_per_s * (1.0 - mbu_fraction)
    mbu_per_s = total_per_s * mbu_fraction
    return ScrubbingModel(
        words=words,
        word_upset_rate_per_s=sbu_per_s / words,
        mbu_due_rate_per_s=mbu_per_s,
        scrub_energy_j=scrub_energy_j,
    )
