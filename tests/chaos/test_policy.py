"""Failure taxonomy and the shared backoff schedule."""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import (
    AnalysisError,
    ChaosError,
    ConfigurationError,
    ReproIOError,
    SupervisionError,
)
from repro.resilient import (
    FailureClass,
    SupervisionPolicy,
    UnitTimeoutError,
    classify_failure,
)
from repro.resilient.chaos import ChaosFatalError, ChaosTransientError
from repro.scheduler.retry import RetryPolicy, backoff_delay


class TestClassifyFailure:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError("bad plan"),
            AnalysisError("bad table"),
            ReproIOError("torn file"),
            ChaosError("bad spec"),
            TypeError("wrong arg"),
            ValueError("wrong value"),
            KeyError("missing"),
            AttributeError("missing attr"),
            ZeroDivisionError(),
            AssertionError("invariant"),
        ],
    )
    def test_deterministic_errors_are_sdc(self, exc):
        # Rerunning a programming error reproduces it: quarantine, do
        # not burn retries (the SDC-like leg of the paper's taxonomy).
        assert classify_failure(exc) is FailureClass.SDC
        assert not FailureClass.SDC.transient

    @pytest.mark.parametrize(
        "exc",
        [
            UnitTimeoutError("hung"),
            TimeoutError(),
            BrokenProcessPool("worker died"),
            ConnectionError(),
            MemoryError(),
            OSError("disk trouble"),
        ],
    )
    def test_worker_death_is_syscrash(self, exc):
        assert classify_failure(exc) is FailureClass.SYS_CRASH
        assert FailureClass.SYS_CRASH.transient

    def test_plain_exception_is_appcrash(self):
        assert classify_failure(RuntimeError("flaky")) is FailureClass.APP_CRASH
        assert FailureClass.APP_CRASH.transient

    def test_declared_class_wins_over_type_tables(self):
        # Chaos faults carry their own verdict; ChaosFatalError is a
        # plain Exception but must triage as SDC.
        assert classify_failure(ChaosFatalError("x")) is FailureClass.SDC
        assert (
            classify_failure(ChaosTransientError("x"))
            is FailureClass.APP_CRASH
        )


class TestBackoff:
    def test_schedule_is_exponential_and_capped(self):
        policy = SupervisionPolicy(
            max_retries=5, backoff_s=0.1, max_backoff_s=0.5
        )
        schedule = [policy.backoff_delay(k) for k in range(1, 6)]
        assert schedule == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_schedule_has_no_jitter(self):
        # Deterministic by construction: same policy, same schedule.
        policy = SupervisionPolicy(max_retries=3)
        first = [policy.backoff_delay(k) for k in range(1, 4)]
        assert first == [policy.backoff_delay(k) for k in range(1, 4)]

    def test_unit_and_store_retries_share_one_backoff(self):
        # One capped doubling behind both retry policies; each keeps
        # its own base and cap.
        unit = SupervisionPolicy(
            max_retries=4, backoff_s=0.01, max_backoff_s=0.05
        )
        store = RetryPolicy(attempts=5, base_delay_s=0.01, max_delay_s=0.05)
        expected = [backoff_delay(0.01, 0.05, k) for k in range(1, 5)]
        assert expected == [0.01, 0.02, 0.04, 0.05]
        assert [unit.backoff_delay(k) for k in range(1, 5)] == expected
        assert list(store.delays()) == expected

    def test_attempt_is_one_based(self):
        with pytest.raises(SupervisionError, match="1-based"):
            SupervisionPolicy().backoff_delay(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
            {"max_retries": -1},
            {"backoff_s": -0.1},
            {"max_backoff_s": -1.0},
            {"max_pool_breakages": -1},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(SupervisionError):
            SupervisionPolicy(**kwargs)
