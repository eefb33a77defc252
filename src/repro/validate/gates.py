"""Statistical acceptance gates: assert distributions, not lucky draws.

Beam-test statistics are Poisson (event counts) and binomial (outcome
proportions); a reproduction check that compares one seed's draw
against a point value is really asserting "this seed was lucky".  The
gates here make the acceptance region explicit instead:

* :func:`poisson_count_gate` accepts a count iff it falls inside the
  central ``1 - epsilon`` probability interval of the expected Poisson
  mean -- the statistical analogue of an absolute tolerance;
* :func:`poisson_dispersion_gate` is the classic chi-square
  goodness-of-fit (dispersion index) test that a *set* of counts is
  Poisson-distributed at all;
* :func:`proportion_gate` accepts a measured proportion iff the
  expected one lies inside its Wilson (or exact Clopper-Pearson)
  confidence interval -- the paper's own 95 % error-bar discipline
  (Section 3.5) turned into an executable check;
* :class:`SeedLadder` replaces single-seed pinning with "K of N seeds
  must pass": each rung is an independent trial, the ladder's verdict
  is a binomial acceptance over the rungs.

Every gate returns a :class:`GateResult`, the common currency of the
validate subsystem (the oracle registry and the differential harness
emit them too), so one report format covers all three suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Sequence, Tuple

from scipy import special

from ..core.confidence import (
    ConfidenceInterval,
    binomial_interval,
    clopper_pearson_interval,
)
from ..errors import ValidationError

#: Default two-sided tail mass for Poisson count acceptance.  1e-5 per
#: side corresponds to ~+/-4.4 sigma -- wide enough that an unlucky but
#: healthy seed essentially never trips the gate, tight enough that a
#: calibration regression (rates off by tens of percent) always does.
DEFAULT_EPSILON = 1e-5

#: Default significance level for goodness-of-fit p-value gates.
DEFAULT_ALPHA = 1e-3


@dataclass(frozen=True)
class GateResult:
    """Outcome of one executable validation gate.

    Attributes
    ----------
    gate:
        Dotted/slashed identifier, e.g. ``"table2/upsets[2]"`` or
        ``"statistical/ci_coverage"``.
    ok:
        Did the measurement fall inside the acceptance region?
    measured / expected:
        Rendered values (strings, so every gate kind fits one schema).
    detail:
        The acceptance region or test statistic, human-readable.
    """

    gate: str
    ok: bool
    measured: str = ""
    expected: str = ""
    detail: str = ""

    def render(self) -> str:
        """One console line: ``[ ok ] gate: measured vs expected (detail)``."""
        verdict = " ok " if self.ok else "FAIL"
        text = f"[{verdict}] {self.gate}"
        if self.measured or self.expected:
            text += f": measured {self.measured} vs expected {self.expected}"
        if self.detail:
            text += f" ({self.detail})"
        return text

    def to_dict(self) -> dict:
        """JSON-able encoding (what ``conformance.json`` stores)."""
        return {
            "gate": self.gate,
            "ok": self.ok,
            "measured": self.measured,
            "expected": self.expected,
            "detail": self.detail,
        }


# -- Poisson gates -------------------------------------------------------------


def _poisson_ppf(q: float, mean: float) -> int:
    """``scipy.stats.poisson.ppf(q, mean)`` for ``0 < q < 1``, ``mean > 0``.

    scipy's own step: invert the CDF with ``pdtrik``, round up, then
    step back one count if the CDF there already reaches *q*.
    """
    count = math.ceil(special.pdtrik(q, mean))
    below = max(count - 1, 0)
    return below if special.pdtr(below, mean) >= q else count


def poisson_bounds(mean: float, epsilon: float = DEFAULT_EPSILON) -> Tuple[int, int]:
    """Central ``1 - 2*epsilon`` acceptance interval for a Poisson count."""
    if mean < 0:
        raise ValidationError("Poisson mean must be nonnegative")
    if not 0 < epsilon < 0.5:
        raise ValidationError("epsilon must be in (0, 0.5)")
    if mean == 0:
        return (0, 0)
    if 1.0 - epsilon == 1.0:
        # The upper quantile is 1: no finite count bounds the tail.
        raise ValidationError(f"epsilon {epsilon:g} is below float resolution")
    return _poisson_ppf(epsilon, mean), _poisson_ppf(1.0 - epsilon, mean)


def poisson_count_gate(
    name: str,
    count: int,
    mean: float,
    epsilon: float = DEFAULT_EPSILON,
) -> GateResult:
    """Accept *count* iff it is statistically consistent with Poisson(*mean*)."""
    if count < 0:
        raise ValidationError("count must be nonnegative")
    lower, upper = poisson_bounds(mean, epsilon)
    return GateResult(
        gate=name,
        ok=lower <= count <= upper,
        measured=str(int(count)),
        expected=f"{mean:g}",
        detail=f"Poisson[{lower}, {upper}] at eps={epsilon:g}",
    )


def poisson_pair_gate(
    name: str,
    count_a: int,
    count_b: int,
    sigmas: float = 6.0,
) -> GateResult:
    """Accept two counts as draws from the *same* Poisson distribution.

    The difference of two independent Poisson draws with common mean
    has variance ``a + b`` (estimated), so ``|a - b| / sqrt(a + b)`` is
    an approximate z-score.  This is the differential-testing gate for
    paths that sample the same distribution through different draw
    sequences (scalar vs vectorized injector).
    """
    if count_a < 0 or count_b < 0:
        raise ValidationError("counts must be nonnegative")
    spread = max(float(count_a + count_b), 1.0) ** 0.5
    z = abs(count_a - count_b) / spread
    return GateResult(
        gate=name,
        ok=z <= sigmas,
        measured=f"{count_a} vs {count_b}",
        expected="same distribution",
        detail=f"|a-b|/sqrt(a+b) = {z:.2f} <= {sigmas:g}",
    )


def poisson_dispersion_gate(
    name: str,
    counts: Sequence[int],
    alpha: float = DEFAULT_ALPHA,
) -> GateResult:
    """Chi-square goodness-of-fit: are *counts* Poisson-distributed?

    The dispersion index ``D = sum (c_i - cbar)^2 / cbar`` follows
    ``chi2(n - 1)`` under the Poisson hypothesis; both tails are
    rejected (over-dispersion means hidden correlation, under-dispersion
    means a broken or shared RNG stream).
    """
    if len(counts) < 2:
        raise ValidationError("dispersion test needs at least two counts")
    if any(c < 0 for c in counts):
        raise ValidationError("counts must be nonnegative")
    n = len(counts)
    mean = sum(counts) / n
    if mean == 0:
        return GateResult(
            gate=name,
            ok=all(c == 0 for c in counts),
            measured=str(list(counts)),
            expected="all zero",
            detail="zero-mean degenerate case",
        )
    dispersion = sum((c - mean) ** 2 for c in counts) / mean
    p_lower = float(special.chdtr(n - 1, dispersion))  # chi2.cdf
    p_upper = float(special.chdtrc(n - 1, dispersion))  # chi2.sf
    p_value = 2.0 * min(p_lower, p_upper)
    return GateResult(
        gate=name,
        ok=p_value >= alpha,
        measured=f"D={dispersion:.2f} over n={n}",
        expected=f"chi2({n - 1})",
        detail=f"two-sided p={p_value:.3g} >= alpha={alpha:g}",
    )


# -- proportion gates ----------------------------------------------------------


def proportion_gate(
    name: str,
    successes: int,
    trials: int,
    expected_p: float,
    level: float = 0.95,
    method: str = "wilson",
) -> GateResult:
    """Accept iff *expected_p* lies inside the measured proportion's CI.

    ``method`` selects the Wilson score interval (the paper's Fig. 4
    workhorse) or the exact Clopper-Pearson interval (conservative at
    the tiny trial counts of Figs. 12-13).
    """
    if not 0.0 <= expected_p <= 1.0:
        raise ValidationError("expected proportion must be in [0, 1]")
    if method == "wilson":
        interval = binomial_interval(successes, trials, level)
    elif method == "clopper-pearson":
        interval = clopper_pearson_interval(successes, trials, level)
    else:
        raise ValidationError(
            f"unknown proportion method {method!r}; "
            f"choose 'wilson' or 'clopper-pearson'"
        )
    return GateResult(
        gate=name,
        ok=interval.lower <= expected_p <= interval.upper,
        measured=f"{successes}/{trials} = {interval.value:.3f}",
        expected=f"{expected_p:.3f}",
        detail=(
            f"{method} {level:.0%} CI "
            f"[{interval.lower:.3f}, {interval.upper:.3f}]"
        ),
    )


def interval_coverage_gate(
    name: str,
    interval: ConfidenceInterval,
    expected: float,
) -> GateResult:
    """Accept iff *expected* lies inside an already-computed interval."""
    return GateResult(
        gate=name,
        ok=interval.lower <= expected <= interval.upper,
        measured=f"{interval.value:g}",
        expected=f"{expected:g}",
        detail=(
            f"{interval.level:.0%} CI "
            f"[{interval.lower:g}, {interval.upper:g}]"
        ),
    )


# -- the seed ladder -----------------------------------------------------------


@dataclass(frozen=True)
class SeedTrial:
    """One rung of a ladder: the seed, its verdict, and why."""

    seed: int
    ok: bool
    detail: str = ""


@dataclass
class LadderResult:
    """Verdict of a K-of-N seed ladder."""

    name: str
    trials: List[SeedTrial] = field(default_factory=list)
    required: int = 0

    @property
    def passes(self) -> int:
        """Number of rungs that passed."""
        return sum(1 for t in self.trials if t.ok)

    @property
    def ok(self) -> bool:
        """Did at least ``required`` of the rungs pass?"""
        return self.passes >= self.required

    def to_gate(self) -> GateResult:
        """The ladder verdict as a :class:`GateResult`."""
        failed = [t for t in self.trials if not t.ok]
        detail = f"require {self.required} of {len(self.trials)} seeds"
        if failed:
            shown = ", ".join(
                f"seed {t.seed}" + (f": {t.detail}" if t.detail else "")
                for t in failed[:4]
            )
            detail += f"; failed rungs: {shown}"
            if len(failed) > 4:
                detail += f" (+{len(failed) - 4} more)"
        return GateResult(
            gate=self.name,
            ok=self.ok,
            measured=f"{self.passes}/{len(self.trials)} seeds pass",
            expected=f">= {self.required}",
            detail=detail,
        )


class SeedLadder:
    """K-of-N acceptance over a ladder of RNG seeds.

    A statistical property that holds for ~95 % of seeds fails a
    single pinned seed eventually (or, worse, silently *requires* a
    lucky pin).  The ladder runs the check at every rung and accepts
    when at least *required* rungs pass, so the test asserts the
    distribution of outcomes rather than one draw.

    Parameters
    ----------
    seeds:
        The rung seeds (distinct, deterministic; never random).
    required:
        Minimum number of passing rungs.  Pick it so the false-failure
        probability under the expected per-seed pass rate is
        negligible (e.g. 12 of 15 rungs for a ~95 % property).
    """

    def __init__(self, seeds: Iterable[int], required: int) -> None:
        self.seeds = list(seeds)
        if not self.seeds:
            raise ValidationError("seed ladder needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("seed ladder seeds must be distinct")
        if not 1 <= required <= len(self.seeds):
            raise ValidationError(
                f"required rung count {required} must be in "
                f"[1, {len(self.seeds)}]"
            )
        self.required = required

    def run(
        self,
        name: str,
        check: Callable[[int], object],
    ) -> LadderResult:
        """Run *check* at every rung.

        *check* receives a seed and returns either a bool or a
        ``(bool, detail)`` pair; exceptions are failures (with the
        exception text as detail), so a crash at one rung cannot pass a
        ladder.
        """
        result = LadderResult(name=name, required=self.required)
        for seed in self.seeds:
            try:
                verdict = check(seed)
            except Exception as exc:  # a crashed rung is a failed rung
                result.trials.append(
                    SeedTrial(seed=seed, ok=False, detail=f"raised {exc!r}")
                )
                continue
            if isinstance(verdict, tuple):
                ok, detail = verdict
            else:
                ok, detail = bool(verdict), ""
            result.trials.append(
                SeedTrial(seed=seed, ok=bool(ok), detail=detail)
            )
        return result

    def run_counting(
        self,
        name: str,
        trial: Callable[[int], Tuple[int, int]],
        required_hits: int,
    ) -> GateResult:
        """Run a ladder whose rungs each contribute (hits, total) events.

        All rungs' events pool into one binomial acceptance: at least
        *required_hits* of the pooled total must hit.  This is the
        right shape when each seed contributes several sub-checks (e.g.
        four per-session CI coverages per campaign) -- pooling keeps
        the acceptance statistical instead of per-seed brittle.  A
        crashed rung contributes its events as misses.
        """
        hits = 0
        total = 0
        rungs: List[str] = []
        for seed in self.seeds:
            try:
                seed_hits, seed_total = trial(seed)
            except Exception as exc:
                rungs.append(f"seed {seed} raised {exc!r}")
                continue
            hits += seed_hits
            total += seed_total
            if seed_hits != seed_total:
                rungs.append(f"seed {seed}: {seed_hits}/{seed_total}")
        detail = f"pooled over {len(self.seeds)} seeds"
        if rungs:
            detail += "; partial rungs: " + ", ".join(rungs[:4])
            if len(rungs) > 4:
                detail += f" (+{len(rungs) - 4} more)"
        return GateResult(
            gate=name,
            ok=hits >= required_hits and total > 0,
            measured=f"{hits}/{total} hits",
            expected=f">= {required_hits}",
            detail=detail,
        )
