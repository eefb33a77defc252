"""Beam sessions and their stopping rules."""

import pytest

from repro.errors import SessionError
from repro.harness.session import (
    BeamSession,
    SessionPlan,
    TABLE2_SESSION_PLANS,
    scaled_plan,
)
from repro.injection.events import OutcomeKind
from repro.rng import RngStreams
from repro.soc.dvfs import TABLE3_OPERATING_POINTS


def run_session(plan, seed=1):
    return BeamSession(plan, RngStreams(seed)).run()


class TestPlans:
    def test_table2_plans_match_paper_durations(self):
        durations = [p.max_minutes for p in TABLE2_SESSION_PLANS]
        assert durations == [1651.0, 1618.0, 453.0, 165.0]

    def test_plan_validation(self):
        with pytest.raises(SessionError):
            SessionPlan("x", TABLE3_OPERATING_POINTS[0], max_minutes=0)
        with pytest.raises(SessionError):
            SessionPlan(
                "x", TABLE3_OPERATING_POINTS[0], max_minutes=10, benchmarks=[]
            )

    def test_scaled_plan(self):
        plan = scaled_plan(TABLE2_SESSION_PLANS[2], 0.1)
        assert plan.max_minutes == pytest.approx(45.3)
        assert plan.target_failures == 14
        with pytest.raises(SessionError):
            scaled_plan(plan, 0.0)


class TestSessionRun:
    def test_short_session_metrics(self):
        plan = SessionPlan(
            "mini", TABLE3_OPERATING_POINTS[0], max_minutes=60.0
        )
        result = run_session(plan)
        assert result.duration_minutes == pytest.approx(60.0, abs=0.2)
        assert result.fluence.fluence_per_cm2 == pytest.approx(
            1.5e6 * 60 * 60, rel=0.01
        )
        assert result.upset_count == len(result.edac)
        assert result.upset_rate_per_min == pytest.approx(1.01, abs=0.5)

    def test_benchmarks_rotate(self):
        plan = SessionPlan(
            "mini", TABLE3_OPERATING_POINTS[0], max_minutes=5.0
        )
        result = run_session(plan)
        benchmarks = {b for b, _, _ in result.flown_schedule()}
        assert len(benchmarks) == 6

    def test_failure_target_stops_session(self):
        plan = SessionPlan(
            "stop-on-failures",
            TABLE3_OPERATING_POINTS[2],  # Vmin: ~0.31 failures/min
            max_minutes=100000.0,
            target_failures=10,
        )
        result = run_session(plan)
        assert result.failure_count >= 10
        assert result.duration_minutes < 1000.0

    def test_fluence_target_stops_session(self):
        plan = SessionPlan(
            "stop-on-fluence",
            TABLE3_OPERATING_POINTS[0],
            max_minutes=100000.0,
            target_fluence=1.5e6 * 60 * 30,  # ~30 minutes worth
        )
        result = run_session(plan)
        assert result.duration_minutes == pytest.approx(30.0, abs=1.0)

    def test_failures_sorted_by_time(self):
        plan = SessionPlan(
            "vmin", TABLE3_OPERATING_POINTS[2], max_minutes=200.0
        )
        result = run_session(plan)
        times = [f.time_s for f in result.failures]
        assert times == sorted(times)

    def test_failure_counts_partition_failures(self):
        plan = SessionPlan(
            "vmin", TABLE3_OPERATING_POINTS[2], max_minutes=300.0
        )
        result = run_session(plan)
        counts = result.failure_counts()
        assert sum(counts.values()) == result.failure_count

    def test_memory_ser_plausible(self):
        plan = SessionPlan(
            "nominal", TABLE3_OPERATING_POINTS[0], max_minutes=400.0
        )
        result = run_session(plan)
        ser = result.memory_ser_fit_per_mbit(sram_bits=80_236_544)
        # Table 2: 2.08-2.45 FIT/Mbit band (plus Poisson slack).
        assert 1.4 < ser < 3.0

    def test_ser_requires_fluence(self):
        plan = SessionPlan(
            "nominal", TABLE3_OPERATING_POINTS[0], max_minutes=10.0
        )
        session = BeamSession(plan, RngStreams(0))
        from repro.beam.fluence import FluenceAccount
        from repro.harness.session import SessionResult
        from repro.injection.injector import InjectionSummary
        from repro.soc.edac import EdacLog

        empty = SessionResult(
            plan=plan,
            fluence=FluenceAccount(),
            upsets=InjectionSummary(),
            failures=[],
            edac=EdacLog(),
        )
        with pytest.raises(SessionError):
            empty.memory_ser_fit_per_mbit(1000)

    def test_deterministic_given_seed(self):
        plan = SessionPlan(
            "mini", TABLE3_OPERATING_POINTS[0], max_minutes=30.0
        )
        a = run_session(plan, seed=5)
        b = run_session(plan, seed=5)
        assert a.upset_count == b.upset_count
        assert a.failure_count == b.failure_count

    def test_different_seeds_differ(self):
        plan = SessionPlan(
            "mini", TABLE3_OPERATING_POINTS[0], max_minutes=120.0
        )
        a = run_session(plan, seed=5)
        b = run_session(plan, seed=6)
        assert (
            a.upset_count != b.upset_count
            or a.failure_count != b.failure_count
        )
