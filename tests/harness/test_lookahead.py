"""The session look-ahead flies exactly the bytes of per-run flight.

:class:`~repro.harness.session.BeamSession` draws the Poisson counts of
the next runs in one array call and flies the leading all-zero runs
without drawing again.  Each case below flies its sessions twice: once
as shipped, and once with the look-ahead forced to find no quiet run,
so every run draws its own counts.  The two must encode to the same
``session_to_dict`` record bytes, the same metrics snapshot and the
same verdict per run.

The grid spans seeds, time scales from 0.002 to 1.0, the default and
7 nm nodes and both injector paths.  It includes session 3's 141-failure
stop at full length, truncated last runs and SysCrash power cycles
between quiet runs; ``test_the_grid_reaches_every_edge`` keeps it so.
"""

import json
import random

import pytest

from repro.harness.campaign import Campaign, _fly_session
from repro.harness.controller import ControlPC
from repro.harness.session import BeamSession, SessionPlan
from repro.injection.events import OutcomeKind
from repro.injection.injector import BeamInjector
from repro.io.json_store import session_to_dict
from repro.rng import RngStreams
from repro.soc.dvfs import TABLE3_OPERATING_POINTS
from repro.workloads.profiles import PROFILES

#: id -> (seed, time scale, tech node, vectorized, sessions flown).
CASES = {
    "tiny": (2023, 0.002, None, True, None),
    "7nm": (7, 0.02, "7nm", True, None),
    "scalar": (11, 0.02, None, False, None),
    "7nm-scalar": (5, 0.05, "7nm", False, None),
    "mid": (2023, 0.2, None, True, None),
    "full-stop": (2023, 1.0, None, True, ("session3", "session4")),
    "full-scalar": (61, 1.0, None, False, ("session4",)),
}


def _per_run(rng, means, index):
    return 0


def fly(case, lookahead):
    """Fly *case*'s sessions.

    Returns ``[(result, record JSON bytes, snapshot, exposes, verdicts)]``,
    where *verdicts* holds what each ``run_benchmark`` call returned:
    the run's verdict, or None for a clean or quiet run.
    """
    seed, scale, node, vectorized, labels = CASES[case]
    campaign = Campaign(seed=seed, time_scale=scale, tech_node=node)
    flown = []
    with pytest.MonkeyPatch.context() as patch:
        if not lookahead:
            patch.setattr(BeamSession, "_quiet_runs", staticmethod(_per_run))
        exposes = []
        verdicts = []
        original = BeamInjector.expose
        original_run = ControlPC.run_benchmark

        def counted(self, *args, **kwargs):
            exposes[-1] += 1
            return original(self, *args, **kwargs)

        def judged(self, *args, **kwargs):
            outcome = original_run(self, *args, **kwargs)
            verdicts[-1].append(None if outcome is None else outcome.verdict)
            return outcome

        patch.setattr(BeamInjector, "expose", counted)
        patch.setattr(ControlPC, "run_benchmark", judged)
        for plan in campaign.plans:
            if labels is not None and plan.label not in labels:
                continue
            exposes.append(0)
            verdicts.append([])
            result, _bits, snapshot = _fly_session(
                plan,
                seed,
                vectorized=vectorized,
                with_metrics=True,
                tech_node=campaign.tech_node,
            )
            encoded = json.dumps(session_to_dict(result)).encode()
            flown.append(
                (result, encoded, snapshot, exposes[-1], verdicts[-1])
            )
    return flown


@pytest.fixture(scope="module")
def flights():
    return {
        case: (fly(case, lookahead=True), fly(case, lookahead=False))
        for case in CASES
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_lookahead_flies_the_per_run_bytes(flights, case):
    ahead, per_run = flights[case]
    assert len(ahead) == len(per_run)
    for flown, reference in zip(ahead, per_run):
        result, encoded, snapshot, exposes, verdicts = flown
        _, ref_encoded, ref_snapshot, ref_exposes, ref_verdicts = reference
        label = result.plan.label
        assert encoded == ref_encoded, label
        assert snapshot == ref_snapshot, label
        assert verdicts == ref_verdicts, label
        # Every run passes through run_benchmark once.
        assert len(verdicts) == result.runs_flown, label
        # Per-run flight exposes every run; the look-ahead only the busy.
        assert ref_exposes == result.runs_flown, label
        assert exposes < result.runs_flown, label


def test_the_grid_reaches_every_edge(flights):
    stopped = truncated = crash_between_quiet = False
    for ahead, _ in flights.values():
        for result, *_, verdicts in ahead:
            plan = result.plan
            busy = {index for index, _, _ in result.busy_runs}
            if plan.target_failures is not None:
                stopped |= result.failure_count >= plan.target_failures
            benchmark, _, duration_s = result.flown_schedule()[-1]
            truncated |= duration_s < PROFILES[benchmark].runtime_s
            crash_between_quiet |= any(
                verdicts[i] is OutcomeKind.SYS_CRASH
                and i - 1 not in busy
                and i + 1 not in busy
                for i in range(1, result.runs_flown - 1)
            )
    full_session3 = flights["full-stop"][0][0][0]
    assert full_session3.plan.target_failures == 141
    assert full_session3.failure_count >= 141
    assert stopped and truncated and crash_between_quiet


def clock_schedule(plan):
    """The run-by-run clock the schedule replaces (the reference)."""
    schedule = []
    clock_s = 0.0
    max_s = plan.max_minutes * 60.0
    while clock_s < max_s:
        benchmark = plan.benchmarks[len(schedule) % len(plan.benchmarks)]
        duration_s = min(PROFILES[benchmark].runtime_s, max_s - clock_s)
        if duration_s <= 0:
            break
        schedule.append((benchmark, clock_s, duration_s))
        clock_s += duration_s
    return schedule


def test_schedule_matches_the_run_by_run_clock():
    draw = random.Random(28)
    names = sorted(PROFILES)
    for trial in range(120):
        benchmarks = [draw.choice(names) for _ in range(draw.randint(1, 8))]
        minutes = draw.choice(
            [draw.uniform(0.001, 5.0), draw.uniform(5.0, 2000.0), 1651.0]
        )
        plan = SessionPlan(
            "x",
            TABLE3_OPERATING_POINTS[trial % 4],
            max_minutes=minutes,
            benchmarks=benchmarks,
        )
        session = BeamSession(plan, RngStreams(trial))
        session.chip.apply_operating_point(plan.point)
        schedule, means = session._plan_runs()
        assert schedule == clock_schedule(plan), (benchmarks, minutes)
        # One cycle of full-length rows, and the last (truncated) run.
        point = session.chip.operating_point()
        last = len(schedule) - 1
        for index in {*range(min(len(benchmarks), last)), last}:
            benchmark, _, duration_s = schedule[index]
            assert tuple(means[index]) == session._means_row(
                point, benchmark, duration_s
            )
