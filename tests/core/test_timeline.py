"""Event-timeline analytics."""

import numpy as np
import pytest

from repro.core.timeline import check_interarrivals
from repro.errors import AnalysisError


class TestInterarrivals:
    def test_poisson_stream_accepted(self):
        rng = np.random.default_rng(0)
        times = np.cumsum(rng.exponential(60.0, size=800))
        check = check_interarrivals(times)
        assert check.is_poisson_like()
        assert check.mean_interarrival_s == pytest.approx(60.0, rel=0.1)

    def test_regular_stream_rejected(self):
        times = np.arange(0.0, 1000.0, 10.0)
        check = check_interarrivals(times)
        assert not check.is_poisson_like()

    def test_bursty_stream_rejected(self):
        rng = np.random.default_rng(1)
        bursts = []
        for center in range(0, 10_000, 1000):
            bursts.extend(center + rng.uniform(0, 2.0, size=40))
        check = check_interarrivals(np.array(bursts))
        assert not check.is_poisson_like()

    def test_too_few_events_rejected(self):
        with pytest.raises(AnalysisError):
            check_interarrivals([1.0, 2.0, 3.0])


class TestOnSimulatedSession:
    def test_session_event_stream_is_poisson_like(self):
        from repro.harness.session import BeamSession, SessionPlan
        from repro.rng import RngStreams
        from repro.soc.dvfs import TABLE3_OPERATING_POINTS

        plan = SessionPlan(
            "check", TABLE3_OPERATING_POINTS[0], max_minutes=700.0
        )
        result = BeamSession(plan, RngStreams(8)).run()
        times = [u.time_s for u in result.upsets.upsets]
        check = check_interarrivals(times)
        assert check.is_poisson_like(alpha=0.001)

    def test_session_runs_rarely_multi_event(self):
        from repro.harness.session import BeamSession, SessionPlan
        from repro.rng import RngStreams
        from repro.soc.dvfs import TABLE3_OPERATING_POINTS

        plan = SessionPlan(
            "check", TABLE3_OPERATING_POINTS[0], max_minutes=300.0
        )
        result = BeamSession(plan, RngStreams(9)).run()
        events = np.sort([u.time_s for u in result.upsets.upsets])
        per_run = np.array(
            [
                np.searchsorted(events, start_s + duration_s)
                - np.searchsorted(events, start_s)
                for _, start_s, duration_s in result.flown_schedule()
            ]
        )
        assert np.mean(per_run >= 2) < 0.02
