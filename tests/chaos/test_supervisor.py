"""SupervisedExecutor under injected faults: retries, quarantine, recovery.

Units here are tiny pure functions (module-level so they pickle into
pool workers); the faults come exclusively from a deterministic
:class:`ChaosSpec`, exactly as ``run --chaos`` drives the real
campaign.
"""

import gc
import multiprocessing
import time
import weakref

import pytest

from repro.engine import SerialExecutor, WorkUnit
from repro.resilient import (
    ChaosSpec,
    FailureClass,
    SupervisedExecutor,
    SupervisionPolicy,
)
from repro.telemetry import Telemetry


def _square(x):
    return x * x


class _Box:
    """A result that can be weakly referenced (module-level: pickles)."""

    def __init__(self, value):
        self.value = value


def _boxed(x):
    return _Box(x)


def units(n=3):
    return [
        WorkUnit(key=f"unit{i}", fn=_square, args=(i,)) for i in range(n)
    ]


def no_sleep(_delay):
    return None


def make_executor(workers=1, chaos=None, sleep=no_sleep, **policy_kwargs):
    policy = SupervisionPolicy(**policy_kwargs)
    return SupervisedExecutor(
        policy=policy, workers=workers, chaos=chaos, sleep=sleep
    )


def supervise(executor, batch, telemetry=None):
    """Map *batch*; the ``(reports, results)`` on_result delivered.

    Asserts the contract on the way: one callback per unit, in
    submission order, and ``map`` itself returns nothing.
    """
    seen = []
    returned = executor.map(
        batch,
        lambda index, report, result: seen.append((index, report, result)),
        telemetry=telemetry,
    )
    assert returned is None
    assert [index for index, _, _ in seen] == list(range(len(batch)))
    return [report for _, report, _ in seen], [result for _, _, result in seen]


class TestCleanRuns:
    def test_matches_serial_executor(self):
        _, supervised = supervise(make_executor(), units())
        plain = SerialExecutor().map(units())
        assert supervised == plain == [0, 1, 4]

    def test_no_resilient_counters_without_faults(self):
        # Acceptance criterion: with no faults firing, supervision is
        # invisible -- no retries, no quarantines, nothing counted.
        telemetry = Telemetry()
        supervise(make_executor(), units(), telemetry=telemetry)
        counters = telemetry.metrics.counter_values()
        assert not any(k.startswith("resilient.") for k in counters)
        assert counters["engine.units"] == 3

    def test_reports_in_submission_order(self):
        reports, results = supervise(make_executor(), units())
        assert [r.key for r in reports] == ["unit0", "unit1", "unit2"]
        assert all(r.ok and r.attempts == 1 for r in reports)
        assert results == [0, 1, 4]

    def test_on_result_fires_in_order(self):
        seen = []
        make_executor().map(
            units(),
            lambda index, report, result: seen.append(
                (index, report.key, result)
            ),
        )
        assert seen == [(0, "unit0", 0), (1, "unit1", 1), (2, "unit2", 4)]


class TestRetention:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_no_result_outlives_its_callback(self, workers):
        # Once on_result returns, the executor must hold nothing of that
        # unit: a caller that encodes each result keeps one live result.
        executor = make_executor(workers=workers)
        refs, alive = [], []

        def on_result(index, report, result):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            refs.append(weakref.ref(result))

        batch = [
            WorkUnit(key=f"unit{i}", fn=_boxed, args=(i,)) for i in range(4)
        ]
        try:
            executor.map(batch, on_result)
        finally:
            executor.close()
        assert alive == [[], [False], [False] * 2, [False] * 3]


class TestRetries:
    def test_transient_fault_cleared_by_retry(self):
        chaos = ChaosSpec(units={"unit1": ("raise", "ok")})
        telemetry = Telemetry()
        executor = make_executor(chaos=chaos)
        reports, results = supervise(executor, units(), telemetry=telemetry)
        assert results == [0, 1, 4]
        report = reports[1]
        assert report.ok and report.attempts == 2 and report.retries == 1
        counters = telemetry.metrics.counter_values()
        assert counters["resilient.failures{unit_class=appcrash}"] == 1
        assert counters["resilient.retries{unit_class=appcrash}"] == 1

    def test_backoff_schedule_is_deterministic(self):
        slept = []
        chaos = ChaosSpec(units={"unit0": ("raise", "raise", "ok")})
        executor = make_executor(
            chaos=chaos,
            sleep=slept.append,
            max_retries=3,
            backoff_s=0.1,
            max_backoff_s=10.0,
        )
        assert supervise(executor, units(1))[1] == [0]
        assert slept == [0.1, 0.2]
        assert slept == [executor.policy.backoff_delay(k) for k in (1, 2)]

    def test_retries_exhausted_quarantines(self):
        chaos = ChaosSpec(units={"unit2": ("raise", "raise", "raise")})
        telemetry = Telemetry()
        executor = make_executor(chaos=chaos, max_retries=2)
        reports, results = supervise(executor, units(), telemetry=telemetry)
        assert results == [0, 1, None]  # a quarantined unit has no result
        failure = reports[2]
        assert failure.status == "quarantined" and not failure.ok
        assert failure.attempts == 3
        assert failure.failure_class is FailureClass.APP_CRASH
        counters = telemetry.metrics.counter_values()
        assert counters["resilient.quarantined{unit_class=appcrash}"] == 1
        assert counters["engine.units"] == 2  # only the ok units count


class TestQuarantine:
    def test_fatal_fault_never_retried(self):
        # SDC-like: deterministic failure, retrying reproduces it.
        chaos = ChaosSpec(units={"unit1": ("fatal", "ok")})
        telemetry = Telemetry()
        executor = make_executor(chaos=chaos)
        reports, results = supervise(executor, units(), telemetry=telemetry)
        assert results[1] is None
        report = reports[1]
        assert report.attempts == 1  # the "ok" second attempt never ran
        assert report.failure_class is FailureClass.SDC
        assert report.status == "quarantined" and report.retries == 0
        counters = telemetry.metrics.counter_values()
        assert counters["resilient.quarantined{unit_class=sdc}"] == 1
        assert "resilient.retries{unit_class=sdc}" not in counters

    def test_batch_survives_a_poison_unit(self):
        chaos = ChaosSpec(units={"unit0": ("fatal",)})
        reports, results = supervise(make_executor(chaos=chaos), units())
        assert reports[0].status == "quarantined"
        assert results == [None, 1, 4]


class TestTimeouts:
    def test_serial_hang_times_out_and_retries(self):
        chaos = ChaosSpec(units={"unit1": ("hang", "ok")}, hang_s=0.5)
        telemetry = Telemetry()
        executor = make_executor(chaos=chaos, timeout_s=0.05)
        reports, results = supervise(executor, units(), telemetry=telemetry)
        assert results == [0, 1, 4]
        report = reports[1]
        assert report.ok and report.timeouts == 1 and report.retries == 1
        counters = telemetry.metrics.counter_values()
        assert counters["resilient.timeouts"] == 1
        assert counters["resilient.failures{unit_class=syscrash}"] == 1

    def test_timeout_exhaustion_quarantines_as_syscrash(self):
        chaos = ChaosSpec(units={"unit0": ("hang", "hang")}, hang_s=0.5)
        executor = make_executor(
            chaos=chaos, timeout_s=0.05, max_retries=1
        )
        reports, results = supervise(executor, units(1))
        assert results == [None]
        assert reports[0].status == "quarantined"
        assert reports[0].failure_class is FailureClass.SYS_CRASH


class TestParallel:
    def test_clean_parallel_matches_serial(self):
        _, results = supervise(make_executor(workers=2), units(4))
        assert results == [0, 1, 4, 9]

    def test_killed_worker_breaks_pool_and_recovers(self):
        # 'kill' hard-exits the worker; the supervisor restarts the
        # pool (a breakage, not a unit retry) and every unit completes.
        chaos = ChaosSpec(units={"unit1": ("kill", "ok")})
        telemetry = Telemetry()
        executor = make_executor(workers=2, chaos=chaos)
        reports, results = supervise(executor, units(4), telemetry=telemetry)
        assert results == [0, 1, 4, 9]
        counters = telemetry.metrics.counter_values()
        assert counters["resilient.pool_breakages"] >= 1
        # Innocent units never pay for the breakage with retry budget.
        assert all(r.ok for r in reports)

    def test_breakage_budget_exceeded_degrades_to_serial(self):
        chaos = ChaosSpec(units={"unit0": ("kill", "ok")})
        telemetry = Telemetry()
        executor = make_executor(
            workers=2, chaos=chaos, max_pool_breakages=0
        )
        _, results = supervise(executor, units(3), telemetry=telemetry)
        # Under serial execution 'kill' degrades to a transient raise,
        # so the retry budget rescues the unit and the batch completes.
        assert results == [0, 1, 4]
        counters = telemetry.metrics.counter_values()
        assert counters["resilient.degraded"] == 1

    def test_parallel_hang_is_charged_to_the_unit(self):
        chaos = ChaosSpec(units={"unit1": ("hang", "ok")}, hang_s=2.0)
        telemetry = Telemetry()
        executor = make_executor(workers=2, chaos=chaos, timeout_s=0.2)
        _, results = supervise(executor, units(3), telemetry=telemetry)
        assert results == [0, 1, 4]
        counters = telemetry.metrics.counter_values()
        assert counters["resilient.timeouts"] >= 1
        assert counters["resilient.pool_breakages"] >= 1

    def test_timeout_kills_hung_worker(self):
        # Retiring a pool on timeout must reclaim the hung worker:
        # shutdown(cancel_futures=True) alone leaves it running (and
        # joined at interpreter exit).  hang_s is far beyond the test's
        # patience, so only an actual kill lets the children drain.
        chaos = ChaosSpec(units={"unit0": ("hang", "ok")}, hang_s=60.0)
        executor = make_executor(workers=2, chaos=chaos, timeout_s=0.2)
        _, results = supervise(executor, units(2))
        assert results == [0, 1]
        # Healthy workers stay warm for the next batch by design;
        # close() reaps them so only a genuinely hung (unkilled) worker
        # could keep a child alive past the deadline.
        executor.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not any(
                p.is_alive() for p in multiprocessing.active_children()
            ):
                break
            time.sleep(0.05)
        assert not any(
            p.is_alive() for p in multiprocessing.active_children()
        )

    def test_degradation_keeps_unit_state(self):
        # A unit that burned an attempt in the pool must continue from
        # that attempt when the supervisor degrades to serial -- not
        # restart with a fresh retry budget and replayed chaos faults.
        chaos = ChaosSpec(units={"unit0": ("hang", "ok")}, hang_s=2.0)
        telemetry = Telemetry()
        executor = make_executor(
            workers=2, chaos=chaos, timeout_s=0.2, max_pool_breakages=0
        )
        reports, results = supervise(executor, units(2), telemetry=telemetry)
        assert results == [0, 1]
        report = reports[0]
        assert report.ok
        assert report.attempts == 2 and report.retries == 1
        assert report.timeouts == 1
        counters = telemetry.metrics.counter_values()
        # Attempt 0 fired once (in the pool); a reset state would
        # replay the hang serially and count a second timeout.
        assert counters["resilient.timeouts"] == 1


class TestValidation:
    def test_negative_workers_rejected(self):
        from repro.errors import SupervisionError

        with pytest.raises(SupervisionError):
            SupervisedExecutor(workers=-1)

    def test_unknown_chaos_fault_rejected(self):
        from repro.errors import ChaosError

        with pytest.raises(ChaosError, match="unknown fault"):
            ChaosSpec(units={"unit0": ("explode",)})

    def test_chaos_spec_roundtrip_from_json(self):
        spec = ChaosSpec.from_json(
            '{"units": {"session1": ["raise", "ok"]}, "hang_s": 0.25}'
        )
        assert spec.fault_for("session1", 0) == "raise"
        assert spec.fault_for("session1", 1) == "ok"
        assert spec.fault_for("session1", 5) == "ok"
        assert spec.fault_for("other", 0) == "ok"
        assert spec.touches("session1") and not spec.touches("other")
        assert spec.hang_s == 0.25
