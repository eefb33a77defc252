"""WorkerPool: warm reuse, chunked dispatch, respawn.

The pool's one inviolable contract is that chunking and reuse change
*when* work runs, never *what* the caller sees: every configuration
here is compared byte-for-byte (pickled results) against the serial
reference.  Unit functions live at module level so they pickle into
pool workers.
"""

import os
import pickle
import signal

import pytest

from repro.engine import WarmupSpec, WorkUnit, WorkerPool
from repro.engine.pool import auto_chunk, warm_process
from repro.errors import PoolUnavailable
from repro.telemetry import Telemetry


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _kill_always(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_once(marker, x):
    # First visit hard-kills the hosting worker (SIGKILL: no cleanup,
    # exactly what a chaos 'kill' fault does); the marker file makes
    # the re-dispatched attempt succeed.
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _units(values, fn=_square):
    return [WorkUnit(key=f"u{i}", fn=fn, args=(v,)) for i, v in enumerate(values)]


def _serial_bytes(values):
    return pickle.dumps([_square(v) for v in values])


class TestChunkedDispatch:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, None])
    def test_every_chunk_size_matches_serial(self, chunk):
        values = list(range(8))
        with WorkerPool(workers=2, chunk=chunk) as pool:
            results = pool.map_chunks(_units(values))
        assert pickle.dumps(results) == _serial_bytes(values)

    def test_empty_batch(self):
        with WorkerPool(workers=2) as pool:
            assert pool.map_chunks([]) == []

    def test_unit_exception_reraised_at_submission_position(self):
        units = _units([1, 2, 3])
        units[1] = WorkUnit(key="u1", fn=_boom, args=(1,))
        with WorkerPool(workers=2, chunk=1) as pool:
            with pytest.raises(ValueError, match="boom 1"):
                pool.map_chunks(units)

    def test_pool_survives_a_unit_exception(self):
        # A failing unit is an outcome, not a breakage: the next batch
        # must reuse the same warm pool.
        telemetry = Telemetry()
        with WorkerPool(workers=2) as pool:
            with pytest.raises(ValueError):
                pool.map_chunks(_units([1], fn=_boom), telemetry=telemetry)
            assert pool.map_chunks(
                _units([3]), telemetry=telemetry
            ) == [9]
        counters = telemetry.metrics.counter_values()
        assert counters["engine.pool.spawns"] == 1
        assert counters["engine.pool.reuses"] == 1

    def test_unpicklable_payload_raises_pool_unavailable(self):
        units = [WorkUnit(key="lam", fn=lambda: 11)]
        with WorkerPool(workers=2) as pool:
            with pytest.raises(PoolUnavailable):
                pool.map_chunks(units)

    def test_per_unit_latency_observed(self):
        telemetry = Telemetry()
        with WorkerPool(workers=2, chunk=4) as pool:
            pool.map_chunks(_units([1, 2, 3, 4, 5]), telemetry=telemetry)
        histograms = {
            h.name: h for h in telemetry.metrics.histograms()
        }
        assert histograms["engine.unit_seconds"].count == 5


class TestWarmReuse:
    def test_reuse_matches_fresh_pools_byte_identically(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        warm = WorkerPool(workers=2, chunk=3)
        try:
            first = pickle.dumps(warm.map_chunks(_units(values)))
            second = pickle.dumps(warm.map_chunks(_units(values)))
        finally:
            warm.close()
        with WorkerPool(workers=2, chunk=3) as fresh:
            cold = pickle.dumps(fresh.map_chunks(_units(values)))
        assert first == second == cold == _serial_bytes(values)

    def test_reuse_counted_spawn_once(self):
        telemetry = Telemetry()
        with WorkerPool(workers=2) as pool:
            for _ in range(3):
                pool.map_chunks(_units([1, 2]), telemetry=telemetry)
        counters = telemetry.metrics.counter_values()
        assert counters["engine.pool.spawns"] == 1
        assert counters["engine.pool.reuses"] == 2

    def test_warm_chunks_counted_after_first(self):
        telemetry = Telemetry()
        with WorkerPool(workers=1, chunk=2) as pool:
            pool.map_chunks(_units([1, 2]), telemetry=telemetry)
            pool.map_chunks(_units([3, 4]), telemetry=telemetry)
        counters = telemetry.metrics.counter_values()
        # The initializer warms every worker, so even the first chunk
        # lands on pre-built state.
        assert counters.get("engine.pool.warm_hits", 0) == 2
        assert "engine.pool.cold_chunks" not in counters

    def test_close_then_reuse_respawns(self):
        telemetry = Telemetry()
        pool = WorkerPool(workers=2)
        pool.map_chunks(_units([2]), telemetry=telemetry)
        pool.close()
        assert not pool.live
        assert pool.map_chunks(_units([3]), telemetry=telemetry) == [9]
        pool.close()
        counters = telemetry.metrics.counter_values()
        assert counters["engine.pool.spawns"] == 2


class TestRespawn:
    def test_killed_worker_respawns_and_merge_order_holds(self, tmp_path):
        # One unit SIGKILLs its worker on first visit; the pool must
        # respawn, re-dispatch the unfinished chunks, and still return
        # every result at its submission position.
        marker = str(tmp_path / "died")
        units = [
            WorkUnit(key=f"k{v}", fn=_kill_once, args=(marker, v))
            for v in range(6)
        ]
        telemetry = Telemetry()
        with WorkerPool(workers=2, chunk=2) as pool:
            results = pool.map_chunks(units, telemetry=telemetry)
        assert results == [v * v for v in range(6)]
        counters = telemetry.metrics.counter_values()
        assert counters["engine.pool.respawns"] >= 1

    def test_respawn_budget_exhausted_raises(self):
        # This unit kills its worker on *every* attempt, so the
        # breakage is deterministic and the budget runs out.
        units = [WorkUnit(key="k", fn=_kill_always, args=(1,))]
        pool = WorkerPool(workers=1, max_respawns=1)
        try:
            with pytest.raises(PoolUnavailable, match="broke more than"):
                pool.map_chunks(units)
        finally:
            pool.close()


class TestWarmup:
    def test_warm_process_builds_codec_state(self):
        # Runs in-process: the point is that the spec is executable and
        # the registry accepts the names a campaign warmup would pass.
        warm_process(WarmupSpec(codecs=("parity",), injector=True))

    def test_warmup_spec_travels_to_workers(self):
        spec = WarmupSpec(modules=("json",))
        with WorkerPool(workers=1, warmup=spec) as pool:
            assert pool.map_chunks(_units([3])) == [9]


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(PoolUnavailable):
            WorkerPool(workers=0)

    def test_zero_chunk_rejected(self):
        with pytest.raises(PoolUnavailable):
            WorkerPool(workers=1, chunk=0)


class TestAutoChunk:
    def test_small_batches_stay_per_unit(self):
        assert auto_chunk(2, 4) == 1

    def test_large_batches_amortize(self):
        assert auto_chunk(1000, 4) > 1

    def test_bounded(self):
        assert auto_chunk(10_000_000, 1) <= 32

    @pytest.mark.parametrize("units", [0, 1, 7, 100])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_always_positive(self, units, workers):
        assert auto_chunk(units, workers) >= 1
