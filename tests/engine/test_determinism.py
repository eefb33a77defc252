"""The engine's headline guarantee: executor choice never changes results.

The ISSUE-level acceptance criterion: for the same seed, a campaign
flown by ``ParallelExecutor`` is *byte-identical* to one flown by
``SerialExecutor`` -- compared through the canonical JSON serialization,
which captures every upset, failure, EDAC record and run outcome.
"""

import pytest

from repro import Campaign, ExecutionContext, ParallelExecutor, SerialExecutor
from repro.core.ensemble import run_ensemble
from repro.engine import ParallelExecutor as EngineParallel
from repro.harness.vmin import characterize_all
from repro.injection.microarch import MicroarchInjector
from repro.validate import canonical_campaign_json as _canonical

#: Small but non-trivial: every session still realizes upsets/failures.
SCALE = 0.01


@pytest.fixture(scope="module")
def serial_bytes():
    return _canonical(
        Campaign(seed=99, time_scale=SCALE, executor=SerialExecutor()).run()
    )


class TestCampaignDeterminism:
    def test_serial_run_is_repeatable(self, serial_bytes):
        again = _canonical(Campaign(seed=99, time_scale=SCALE).run())
        assert again == serial_bytes

    def test_parallel_matches_serial_byte_for_byte(self, serial_bytes):
        parallel = _canonical(
            Campaign(
                seed=99, time_scale=SCALE, executor=ParallelExecutor(4)
            ).run()
        )
        assert parallel == serial_bytes

    def test_different_seed_differs(self, serial_bytes):
        other = _canonical(Campaign(seed=100, time_scale=SCALE).run())
        assert other != serial_bytes

    def test_context_equivalent_to_loose_args(self, serial_bytes):
        ctx = ExecutionContext(seed=99, time_scale=SCALE)
        assert _canonical(Campaign(context=ctx).run()) == serial_bytes


class TestOtherRunnersDeterminism:
    def test_vmin_parallel_matches_serial(self):
        serial = characterize_all(seed=5, runs_per_voltage=60)
        parallel = characterize_all(
            seed=5, runs_per_voltage=60, executor=EngineParallel(2)
        )
        assert serial == parallel

    def test_microarch_batch_parallel_matches_serial(self):
        injector = MicroarchInjector()
        serial = injector.run_batch(400)
        parallel = injector.run_batch(400, executor=EngineParallel(2))
        assert serial == parallel

    def test_ensemble_parallel_matches_serial(self):
        metric = {"upsets": lambda a: a.upset_rate("session1").per_minute}
        serial = run_ensemble([1, 2], time_scale=SCALE, metrics=metric)
        parallel = run_ensemble(
            [1, 2],
            time_scale=SCALE,
            metrics=metric,
            executor=EngineParallel(2),
        )
        assert serial["upsets"].values == parallel["upsets"].values
