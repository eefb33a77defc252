"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import meter  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from stats import ClosedLoop, beyond, percentile, tail_percentile  # noqa: E402


class ManualClock:
    """A per-thread clock the wrapped functions advance by hand."""

    def __init__(self) -> None:
        self._local = threading.local()

    def __call__(self) -> float:
        return getattr(self._local, "now", 0.0)

    def advance(self, seconds: float) -> None:
        self._local.now = self() + seconds


# -- self time --------------------------------------------------------------------


def test_self_time_subtracts_nested_wrapped_calls():
    clock = ManualClock()
    trace = tracer.Tracer(clock=clock)
    inner = trace.wrap("layer.inner", lambda: clock.advance(2.0))

    def body():
        clock.advance(1.0)
        inner()
        clock.advance(3.0)
        inner()

    trace.wrap("layer.outer", body)()
    rows = trace.rows()
    assert rows["layer.outer"] == [1, 8.0, 4.0]
    assert rows["layer.inner"] == [2, 4.0, 4.0]


def test_self_time_stacks_are_per_thread():
    """A nested call in one thread never counts against another's frame."""
    clock = ManualClock()
    trace = tracer.Tracer(clock=clock)
    both_inside = threading.Barrier(2)
    inner = trace.wrap("layer.inner", lambda: clock.advance(2.0))

    def body(nested: bool) -> None:
        clock.advance(1.0)
        both_inside.wait(timeout=10)
        if nested:
            inner()
        both_inside.wait(timeout=10)
        clock.advance(1.0)

    outer = trace.wrap("layer.outer", body)
    threads = [threading.Thread(target=outer, args=(flag,)) for flag in (True, False)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    rows = trace.rows()
    assert rows["layer.outer"] == [2, 6.0, 4.0]
    assert rows["layer.inner"] == [1, 2.0, 2.0]


def test_spans_record_parent_and_share_the_job_id():
    clock = ManualClock()
    trace = tracer.Tracer(clock=clock)
    leaf = trace.wrap("layer.leaf", lambda: clock.advance(1.0))
    unit = trace.wrap("layer.unit", leaf, span="unit")
    with trace.job_span("job-a"):
        unit()
    job, child = trace.spans
    assert job["kind"] == "job" and child["kind"] == "unit"
    assert child["parent"] == 0
    assert child["job"] == job["job"] == "job-a"
    assert (child["start"], child["end"]) == (0.0, 1.0)


def test_disabled_tracer_records_nothing():
    trace = tracer.Tracer()
    wrapped = trace.wrap("layer.f", lambda x: x + 1)
    trace.disable()
    assert wrapped(1) == 2
    assert trace.rows() == {}


def test_layers_with_no_calls_read_zero():
    empty = {"rows": {}, "counts": {}, "spans": [], "queue_wait_s": []}
    values = tracer.layer_metrics(empty, job_s=2.0, untraced_job_s=1.0, retries=0, quarantined=0)
    names = [name for name, _, _ in tracer.per_layer_spec()]
    assert set(values) == set(names)
    assert values["codecs.run_cell.calls"] == 0
    assert values["trace.overhead"] == pytest.approx(1.0)


# -- percentiles --------------------------------------------------------------------


def test_nearest_rank_percentile():
    samples = list(range(1, 11))
    assert percentile(samples, 50) == 5
    assert percentile(samples, 90) == 9
    assert percentile(samples, 100) == 10


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


# -- closed loop -------------------------------------------------------------------


def test_closed_loop_latency_accounting():
    loop = ClosedLoop(limit_s=60.0)
    loop.record(0.0, 1.0, True)
    loop.record(0.5, 2.0, True)
    loop.record(1.0, 1.5, False)
    assert loop.latencies() == [1.0, 1.5, 60.0]
    assert loop.span() == (0.0, 2.0)
    assert (loop.attempted, loop.failed) == (3, 1)


def test_closed_loop_keeps_one_job_in_flight_per_client(monkeypatch):
    lock = threading.Lock()
    in_flight, peak = set(), []

    def submit(port, spec):
        with lock:
            in_flight.add(spec["seed"])
            peak.append(len(in_flight))
        return f"sub-{spec['seed']}"

    class Service:
        port = 0
        ctx = types.SimpleNamespace(bound=lambda limit: limit)

        def wait_done(self, sid, deadline):
            time.sleep(0.005)
            with lock:
                in_flight.remove(int(sid[4:]))
            return True

    monkeypatch.setattr(workloads, "_submit", submit)
    loop = ClosedLoop(limit_s=5.0)
    served = {}
    table = workloads.job_table(7, 30)
    workloads.closed_loop(Service(), table, 1, 20, loop, served)
    assert loop.attempted == 20 and loop.failed == 0
    assert max(peak) <= workloads.CLIENTS
    assert sorted(served) == sorted(f"job-{i}" for i in range(1, 21))
    first, last = loop.span()
    assert last - first >= max(loop.latencies())


def test_job_table_is_seeded_and_distinct():
    table = workloads.job_table(3, 200)
    assert table == workloads.job_table(3, 200)
    assert table != workloads.job_table(4, 200)
    assert workloads.job_table(3, 50) == table[:51]
    assert len({entry["seed"] for entry in table}) == len(table)
    low, high = workloads.TIME_SCALE_RANGE
    assert all(low <= entry["time_scale"] <= high for entry in table[1:])


# -- contention meter ---------------------------------------------------------------


def _steady(factors, until=10.0):
    """Probe samples every 20 ms, each vCPU at a fixed slowdown."""
    times = [i * 0.02 for i in range(int(until / 0.02))]
    return {cpu: (times, [f * meter.REFERENCE_LOOP_S] * len(times)) for cpu, f in factors.items()}


def test_slowdown_follows_the_vcpus_the_program_ran_on():
    samples = _steady({0: 2.0, 1: 1.0})
    on_cpu0 = [(t, 0) for t in (1.0, 1.05, 1.1)]
    assert meter.slowdown(samples, on_cpu0, 0.9, 1.2) == pytest.approx(2.0)
    on_both = on_cpu0 + [(t, 1) for t in (1.0, 1.05, 1.1)]
    assert meter.slowdown(samples, on_both, 0.9, 1.2) == pytest.approx(1.5)


def test_slowdown_falls_back_to_every_vcpu_when_the_program_slept():
    samples = _steady({0: 3.0, 1: 1.0})
    assert meter.slowdown(samples, [(8.0, 0)], 1.0, 2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        meter.slowdown({0: ([], [])}, [], 1.0, 2.0)


class _HalfSpeed:
    def slowdown(self, placements, start, end):
        return 2.0


def test_timings_are_reported_at_uncontended_speed_beside_wall():
    run = workloads.Run(workload="campaign", seed=1, settings={})
    for start in (0.0, 10.0):
        run.jobs.append(workloads.Job(
            setup_span=(start, start + 1.0), job_span=(start + 1.0, start + 5.0),
            latency_span=(start, start + 5.0), rss_mb=100.0, rc=0,
        ))
    uncontended, wall = bench.samples(run, _HalfSpeed())
    assert wall == {"setup_s": [1.0, 1.0], "job_s": [4.0, 4.0], "latency_s": [5.0, 5.0],
                    "rss_mb": [100.0, 100.0]}
    assert uncontended == {"setup_s": [0.5, 0.5], "job_s": [2.0, 2.0], "latency_s": [2.5, 2.5],
                           "rss_mb": [100.0, 100.0]}


def test_a_failed_served_job_counts_as_the_limit():
    run = workloads.Run(workload="serve", seed=1, settings={})
    run.loop = ClosedLoop(limit_s=30.0)
    run.loop.record(0.0, 1.0, True)
    run.loop.record(0.5, 2.0, False)
    run.services.append(workloads.Job(setup_span=(-3.0, -1.0), job_span=run.loop.span(), rc=0))
    uncontended, wall = bench.samples(run, _HalfSpeed())
    assert uncontended["latency_s"] == [0.5, 30.0] and wall["latency_s"] == [1.0, 30.0]
    assert uncontended["job_s"] == [1.0] and uncontended["setup_s"] == [1.0]


def test_meter_probes_every_vcpu_and_stops(tmp_path):
    probes = meter.Meter(str(tmp_path))
    time.sleep(0.3)
    probes.stop()
    assert all(proc.poll() is not None for proc in probes._procs)
    assert all(len(probes.samples[cpu][1]) >= 2 for cpu in probes.cpus)
    assert probes.fastest > 0


# -- output checks and failed_frac --------------------------------------------------


@pytest.fixture(scope="module")
def small_campaign(tmp_path_factory):
    """One real, tiny campaign written by the program's CLI."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.cli

    outdir = str(tmp_path_factory.mktemp("campaign") / "out")
    assert repro.cli.main(["run", outdir, "--seed", "5", "--time-scale", "0.01"]) == 0
    return outdir


def _cli_run(tmp_path, source, copies):
    run = workloads.Run(workload="campaign", seed=5, settings={})
    for index in range(copies):
        outdir = str(tmp_path / f"job{index}")
        shutil.copytree(source, outdir)
        run.jobs.append(workloads.Job(rc=0, outdir=outdir))
    return run


def _ledger(tmp_path):
    return checks.Ledger(str(tmp_path / "ledger"), "test", "campaign", 5)


def test_healthy_outputs_pass(tmp_path, small_campaign):
    tally = checks.Tally()
    facts = bench._check_cli(_cli_run(tmp_path, small_campaign, 2), tally, _ledger(tmp_path))
    assert tally.correct and tally.failed_frac == 0.0
    assert facts["runs"] > 0 and facts["beam_minutes"] > 0


def test_failed_output_check_raises_failed_frac(tmp_path, small_campaign):
    run = _cli_run(tmp_path, small_campaign, 2)
    path = os.path.join(run.jobs[1].outdir, "failures.json")
    with open(path) as handle:
        failures = json.load(handle)
    failures["ok"] = False
    with open(path, "w") as handle:
        json.dump(failures, handle)
    tally = checks.Tally()
    bench._check_cli(run, tally, _ledger(tmp_path))
    assert not tally.correct
    assert (tally.attempted, tally.failed, tally.failed_frac) == (2, 1, 0.5)


def test_one_byte_drift_fails_determinism(tmp_path, small_campaign):
    run = _cli_run(tmp_path, small_campaign, 2)
    path = os.path.join(run.jobs[1].outdir, "campaign.json")
    with open(path, "rb+") as handle:
        data = bytearray(handle.read())
        data[-2] = ord(" ") if data[-2] != ord(" ") else ord("\n")
        handle.seek(0)
        handle.write(data)
    tally = checks.Tally()
    bench._check_cli(run, tally, _ledger(tmp_path))
    assert not tally.correct and tally.failed == 1


def test_ledger_flags_a_changed_digest_across_runs(tmp_path):
    first = checks.Ledger(str(tmp_path), "code", "serve", 1)
    first.save({"job-1": "aa", "job-2": "bb"})
    later = checks.Ledger(str(tmp_path), "code", "serve", 1)
    assert later.compare({"job-1": "aa", "job-3": "cc"}) == []
    assert later.compare({"job-2": "zz"}) == ["job-2"]
    assert checks.Ledger(str(tmp_path), "other-code", "serve", 1).compare({"job-2": "zz"}) == []


# -- the benchmark description --------------------------------------------------------


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.per_layer_spec()
