"""One beam test session, with the paper's stopping rules.

A session pins an operating point, slides the DUT into the halo, and
cycles the six benchmarks until a stopping condition fires (Section
3.5):

* ~100 accumulated failures (SDC + AppCrash + SysCrash), or
* >= 1e11 n/cm^2 fluence, or
* the reserved beam time runs out (session 4 ended at 165 minutes).

:data:`TABLE2_SESSION_PLANS` encodes the four campaign sessions with
Table 2's actual durations, so the regenerated table reproduces the
paper's fluences and NYC-equivalence figures exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import constants
from ..beam.fluence import FluenceAccount
from ..constants import TNF_HALO_FLUX_PER_CM2_S
from ..errors import SessionError
from ..injection.calibration import LevelRateModel, OutcomeMixModel
from ..injection.events import FailureEvent, OutcomeKind
from ..injection.injector import BeamInjector, InjectionSummary
from ..injection.propagation import OutcomeModel
from ..rng import RngStreams
from ..soc.dvfs import OperatingPoint, TABLE3_OPERATING_POINTS
from ..soc.geometry import CacheLevel
from ..telemetry import MetricsRegistry
from ..soc.edac import EdacLog, EdacSeverity
from ..soc.xgene2 import XGene2
from ..units import bits_to_mbit
from ..workloads.profiles import PROFILES
from ..workloads.suite import SUITE_NAMES
from .controller import ControlPC, RunOutcome

#: Runs whose Poisson counts one look-ahead draw covers.  About 94% of
#: the runs in Table 2's campaign draw only zeros (the mean quiet
#: stretch is ~15 runs), and those fly from one array draw.
LOOKAHEAD_RUNS = 32


@dataclass(frozen=True)
class SessionPlan:
    """Configuration of one beam session.

    Attributes
    ----------
    label:
        Session identifier ("session1", ...).
    point:
        Operating point (frequency + domain voltages).
    max_minutes:
        Reserved beam time; the hard stop.
    target_failures:
        Optional early stop on accumulated failures (None = off).
    target_fluence:
        Optional early stop on fluence (None = off).
    benchmarks:
        Benchmark rotation (defaults to the full suite).
    flux_per_cm2_s:
        Beam flux at the DUT (the halo flux by default).
    """

    label: str
    point: OperatingPoint
    max_minutes: float
    target_failures: Optional[int] = None
    target_fluence: Optional[float] = None
    benchmarks: List[str] = field(default_factory=lambda: list(SUITE_NAMES))
    flux_per_cm2_s: float = TNF_HALO_FLUX_PER_CM2_S

    def __post_init__(self) -> None:
        if self.max_minutes <= 0:
            raise SessionError("session needs positive beam time")
        if not self.benchmarks:
            raise SessionError("session needs at least one benchmark")


#: One run of a session that struck or failed something: its index in
#: :func:`run_schedule`, its upset histogram (keys in flown order) and
#: its failure count.
BusyRun = Tuple[int, Dict[Tuple[CacheLevel, EdacSeverity], int], int]


def run_schedule(plan: SessionPlan) -> List[Tuple[str, float, float]]:
    """Every run the plan's beam time allows, in flight order.

    A run is ``(benchmark, start_s, duration_s)``.  Benchmarks cycle in
    plan order, each for its profile runtime, and the last run is
    truncated at ``max_minutes``; stopping rules cut a flight short, so
    the runs a session flies are a prefix of this list.  ``np.cumsum``
    adds in order, so every ``start_s`` is the float a running clock
    reaches.  :class:`BeamSession` flies this list, and
    :func:`repro.io.json_store.render_session` renders the runs of
    ``campaign.json`` from it.
    """
    names = plan.benchmarks
    runtimes = [PROFILES[name].runtime_s for name in names]
    max_s = plan.max_minutes * 60.0
    # Runs that end before max_s fly at full length.
    bound = int(max_s / min(runtimes)) + 2
    ends = np.cumsum(np.resize(runtimes, bound))
    full = int(np.searchsorted(ends, max_s))
    starts = [0.0, *ends[:full].tolist()]
    durations = np.resize(runtimes, full).tolist()
    # The rest, run by run, until the clock reaches max_s.
    clock_s = starts.pop()
    while clock_s < max_s:
        duration_s = min(
            runtimes[len(durations) % len(names)], max_s - clock_s
        )
        if duration_s <= 0:
            break
        starts.append(clock_s)
        durations.append(duration_s)
        clock_s += duration_s
    count = len(durations)
    benchmarks = (names * (count // len(names) + 1))[:count]
    return list(zip(benchmarks, starts, durations))


#: The four campaign sessions of Table 2 (durations as flown).
TABLE2_SESSION_PLANS: List[SessionPlan] = [
    SessionPlan("session1", TABLE3_OPERATING_POINTS[0], max_minutes=1651.0),
    SessionPlan("session2", TABLE3_OPERATING_POINTS[1], max_minutes=1618.0),
    SessionPlan(
        "session3",
        TABLE3_OPERATING_POINTS[2],
        max_minutes=453.0,
        target_failures=141,
    ),
    SessionPlan("session4", TABLE3_OPERATING_POINTS[3], max_minutes=165.0),
]


@dataclass
class SessionResult:
    """Everything measured during one session.

    Attributes
    ----------
    plan:
        The configuration that produced this result.
    fluence:
        Fluence account over the session.
    upsets:
        Consolidated upset summary.
    failures:
        All software failures, time-sorted.
    edac:
        The Control-PC's cumulative EDAC archive.
    runs_flown:
        Runs flown: the first ``runs_flown`` entries of
        :func:`run_schedule`, which give each run's benchmark,
        ``start_s`` and ``duration_s``.
    busy_runs:
        ``(run index, counts, failure count)`` of every run whose upset
        histogram is non-empty or that failed, in flight order; each
        run's *counts* dict keeps its flown key order.  Every other run
        struck nothing and failed nothing.
    """

    plan: SessionPlan
    fluence: FluenceAccount
    upsets: InjectionSummary
    failures: List[FailureEvent]
    edac: EdacLog
    runs_flown: int = 0
    busy_runs: List[BusyRun] = field(default_factory=list)

    # -- Table 2 metrics ----------------------------------------------------------

    @property
    def duration_minutes(self) -> float:
        """Beam-on duration of the session."""
        return self.fluence.exposure_minutes

    @property
    def failure_count(self) -> int:
        """SDCs and crashes, total."""
        return len(self.failures)

    @property
    def failure_rate_per_min(self) -> float:
        """Table 2's 'SDCs and crashes rate (per min)'."""
        if self.duration_minutes <= 0:
            return 0.0
        return self.failure_count / self.duration_minutes

    @property
    def upset_count(self) -> int:
        """Memory upsets, total."""
        return self.upsets.total_upsets

    @property
    def upset_rate_per_min(self) -> float:
        """Table 2's 'Memory upsets rate (per min)'."""
        if self.duration_minutes <= 0:
            return 0.0
        return self.upset_count / self.duration_minutes

    def flown_schedule(self) -> List[Tuple[str, float, float]]:
        """``(benchmark, start_s, duration_s)`` of every run flown."""
        return run_schedule(self.plan)[: self.runs_flown]

    def failures_of_kind(self, kind: OutcomeKind) -> List[FailureEvent]:
        """Failures of one category."""
        return [f for f in self.failures if f.kind is kind]

    def failure_counts(self) -> Dict[OutcomeKind, int]:
        """Histogram over the three failure categories."""
        return {
            kind: len(self.failures_of_kind(kind))
            for kind in (
                OutcomeKind.APP_CRASH,
                OutcomeKind.SYS_CRASH,
                OutcomeKind.SDC,
            )
        }

    def memory_ser_fit_per_mbit(self, sram_bits: int) -> float:
        """Table 2's 'Memory SER (FIT per MBit)'.

        Cross-section of memory upsets, converted to NYC FIT and
        normalized per Mbit of on-chip SRAM.
        """
        if self.fluence.fluence_per_cm2 <= 0:
            raise SessionError("session has no accumulated fluence")
        dcs = self.upset_count / self.fluence.fluence_per_cm2
        fit = dcs * constants.NYC_FLUX_PER_CM2_HOUR * constants.FIT_HOURS
        return fit / bits_to_mbit(sram_bits)


class BeamSession:
    """Executes one session plan against a fresh chip model.

    Parameters
    ----------
    plan:
        The session configuration.
    streams:
        Root RNG stream factory (one per campaign).
    chip:
        Optional pre-built chip (a fresh one is made by default).
    metrics:
        Optional :class:`~repro.telemetry.MetricsRegistry` the session
        counts runs (by verdict), failures and injector activity into.
        Observational only; the flown result is byte-identical with or
        without it.
    """

    def __init__(
        self,
        plan: SessionPlan,
        streams: RngStreams,
        chip: XGene2 = None,
        rate_model: LevelRateModel = None,
        outcome_mix: OutcomeMixModel = None,
        vectorized: bool = True,
        metrics: "MetricsRegistry" = None,
    ) -> None:
        self.plan = plan
        self.streams = streams
        self.chip = chip or XGene2()
        self.metrics = metrics
        self.injector = BeamInjector(
            self.chip,
            rate_model=rate_model,
            vectorized=vectorized,
            metrics=metrics,
        )
        outcome_model = (
            OutcomeModel(mix=outcome_mix) if outcome_mix else OutcomeModel()
        )
        self.controller = ControlPC(self.chip, self.injector, outcome_model)

    def run(self) -> SessionResult:
        """Fly the session: apply the point, cycle benchmarks, stop.

        Runs whose Poisson counts a look-ahead draws as all zero fly
        without drawing again (:meth:`_quiet_runs`); the rest fly the
        Control-PC's per-run draws.  Every run still passes through
        :meth:`ControlPC.run_benchmark` once, which perfbench counts
        against the runs in ``campaign.json``.  Only a run that struck
        or failed something leaves a :data:`BusyRun` in the result.
        """
        plan = self.plan
        self.chip.apply_operating_point(plan.point)
        rng = self.streams.child("session", label=plan.label)
        schedule, means = self._plan_runs()
        fluence = FluenceAccount()
        upsets = InjectionSummary()
        failures: List[FailureEvent] = []
        busy_runs: List[BusyRun] = []
        flux = plan.flux_per_cm2_s
        target_failures = plan.target_failures
        target_fluence = plan.target_fluence
        run_benchmark = self.controller.run_benchmark
        busy_flown = 0
        index = -1
        quiet_end = look_at = 0

        for index, (benchmark, start_s, duration_s) in enumerate(schedule):
            if index == look_at:
                stretch = self._quiet_runs(rng, means, index)
                quiet_end = index + stretch
                # A block that ends busy flies that run per run first.
                look_at = quiet_end + (stretch < LOOKAHEAD_RUNS)
            outcome = run_benchmark(
                benchmark,
                duration_s,
                start_s,
                rng,
                flux_per_cm2_s=flux,
                quiet=index < quiet_end,
            )
            fluence.expose(flux, duration_s)
            if outcome is None:
                upsets.duration_s += duration_s
            else:
                busy_flown += 1
                counts = outcome.upsets.counts
                upsets.merge(outcome.upsets)
                failures.extend(outcome.failures)
                if counts or outcome.failures:
                    busy_runs.append((index, counts, len(outcome.failures)))
                if self.metrics is not None:
                    self._count_run(outcome)

            if (
                target_failures is not None
                and len(failures) >= target_failures
            ):
                break
            if (
                target_fluence is not None
                and fluence.fluence_per_cm2 >= target_fluence
            ):
                break

        failures.sort(key=lambda f: f.time_s)
        runs_flown = index + 1
        if self.metrics is not None:
            quiet_flown = runs_flown - busy_flown
            if quiet_flown:
                self.metrics.counter("session.runs", kind="ok").inc(
                    quiet_flown
                )
                self.injector.count_quiet_exposures(quiet_flown)
            self.metrics.counter("session.flown").inc()
        return SessionResult(
            plan=plan,
            fluence=fluence,
            upsets=upsets,
            failures=failures,
            edac=self.controller.session_edac,
            runs_flown=runs_flown,
            busy_runs=busy_runs,
        )

    def _plan_runs(self) -> Tuple[List[Tuple[str, float, float]], np.ndarray]:
        """The plan's :func:`run_schedule` and each run's Poisson means.

        A means row holds the injector's level means, then the outcome
        model's category means: the order in which a per-run flight
        draws them, taken from the methods those draws call.  A
        full-length run takes its benchmark's row; only the truncated
        runs at the end of the schedule need rows of their own.
        """
        plan = self.plan
        schedule = run_schedule(plan)
        names = plan.benchmarks
        runtimes = [PROFILES[name].runtime_s for name in names]
        point = self.chip.operating_point()
        cycle = np.array(
            [self._means_row(point, *run) for run in zip(names, runtimes)]
        )
        means = cycle[np.arange(len(schedule)) % len(names)]
        index = len(schedule) - 1
        while index >= 0:
            benchmark, _, duration_s = schedule[index]
            if duration_s == runtimes[index % len(names)]:
                break
            means[index] = self._means_row(point, benchmark, duration_s)
            index -= 1
        return schedule, means

    def _means_row(
        self, point: OperatingPoint, benchmark: str, duration_s: float
    ) -> Tuple[float, ...]:
        """One run's Poisson means, in the order a per-run flight draws."""
        flux = self.plan.flux_per_cm2_s
        return (
            *self.injector.poisson_means(point, benchmark, flux, duration_s),
            *self.controller.outcome_model.poisson_means(
                point, duration_s, flux
            ),
        )

    @staticmethod
    def _quiet_runs(
        rng: np.random.Generator, means: np.ndarray, index: int
    ) -> int:
        """How many runs from *index* on draw only zero counts.

        One array draw covers the next :data:`LOOKAHEAD_RUNS` runs:
        numpy's array form calls the scalar sampler per element in C
        order, which is the per-run draw order.  When the block holds a
        busy run, the generator goes back to the saved state and
        replays only the quiet rows before it, so it sits exactly where
        per-run flight leaves it and the busy run draws its own counts.
        A stop inside a quiet stretch leaves the session's private
        stream ahead of the runs flown; nothing draws from it after.
        """
        block = means[index:index + LOOKAHEAD_RUNS]
        state = rng.bit_generator.state
        busy_rows = rng.poisson(block).nonzero()[0]
        if not len(busy_rows):
            return len(block)
        quiet = int(busy_rows[0])
        rng.bit_generator.state = state
        if quiet:
            rng.poisson(block[:quiet])
        return quiet

    def _count_run(self, outcome: RunOutcome) -> None:
        """Meter one per-run flight: its verdict and its failures."""
        verdict = outcome.verdict
        self.metrics.counter(
            "session.runs", kind="ok" if verdict is None else verdict.value
        ).inc()
        for failure in outcome.failures:
            self.metrics.counter(
                "session.failures", kind=failure.kind.value
            ).inc()


def scaled_plan(plan: SessionPlan, time_scale: float) -> SessionPlan:
    """Shrink a session plan's beam time (for fast tests and smoke runs).

    Stopping targets that scale with time (failure counts) are scaled
    down proportionally; fluence targets scale with duration too.
    """
    if time_scale <= 0:
        raise SessionError("time scale must be positive")
    return replace(
        plan,
        max_minutes=plan.max_minutes * time_scale,
        target_failures=(
            None
            if plan.target_failures is None
            else max(int(plan.target_failures * time_scale), 1)
        ),
        target_fluence=(
            None
            if plan.target_fluence is None
            else plan.target_fluence * time_scale
        ),
    )
