"""Executors: ordering, fallback, resolution."""

import pytest

from repro.engine import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    WorkUnit,
    resolve_executor,
)
from repro.errors import EngineError


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _units(values):
    return [WorkUnit(key=f"u{v}", fn=_square, args=(v,)) for v in values]


class TestWorkUnit:
    def test_run_in_process(self):
        unit = WorkUnit(key="k", fn=_square, args=(3,))
        assert unit.run() == 9

    def test_kwargs_pass_through(self):
        unit = WorkUnit(key="k", fn=pow, args=(2,), kwargs={"exp": 5})
        assert unit.run() == 32


class TestSerialExecutor:
    def test_results_in_submission_order(self):
        results = SerialExecutor().map(_units([4, 2, 9]))
        assert results == [16, 4, 81]

    def test_empty_batch(self):
        assert SerialExecutor().map([]) == []


class TestParallelExecutor:
    def test_rejects_zero_workers(self):
        with pytest.raises(EngineError):
            ParallelExecutor(0)

    def test_results_in_submission_order(self):
        results = ParallelExecutor(4).map(_units([4, 2, 9, 7]))
        assert results == [16, 4, 81, 49]

    def test_single_unit_runs_serial(self):
        assert ParallelExecutor(4).map(_units([6])) == [36]

    def test_single_worker_runs_serial(self):
        assert ParallelExecutor(1).map(_units([2, 3])) == [4, 9]

    def test_unpicklable_payload_falls_back_to_serial(self):
        units = [
            WorkUnit(key="lam", fn=lambda: 11),
            WorkUnit(key="sq", fn=_square, args=(4,)),
        ]
        assert ParallelExecutor(2).map(units) == [11, 16]

    def test_worker_exception_reraised_without_fallback(self):
        # Unit exceptions ship back inside chunk outcomes and re-raise
        # at their submission position; the serial fallback is reserved
        # for pool *infrastructure* trouble, so a failing unit must not
        # silently rerun in-process.
        from repro.telemetry import Telemetry

        units = [WorkUnit(key=f"b{i}", fn=_boom, args=(i,)) for i in range(2)]
        telemetry = Telemetry()
        with pytest.raises(ValueError, match="boom"):
            ParallelExecutor(2).map(units, telemetry=telemetry)
        counters = telemetry.metrics.counter_values()
        assert "engine.pool_fallbacks" not in counters


class TestResolveExecutor:
    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_serial_values(self, workers):
        assert isinstance(resolve_executor(workers), SerialExecutor)

    def test_parallel_values(self):
        executor = resolve_executor(3)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 3

    def test_is_an_executor(self):
        assert isinstance(resolve_executor(2), Executor)
