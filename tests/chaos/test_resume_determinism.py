"""The headline guarantee: interrupted + resumed == never interrupted.

A campaign is crashed deterministically after k of n units (the
``crash_after_units`` fault point), resumed, and its ``campaign.json``
bytes and filtered telemetry ``counter_values()`` are compared against
the uninterrupted reference -- serially and with four workers.  A
second family of tests shows that surviving injected unit faults also
changes nothing: supervision never touches an RNG stream.
"""

import os

import pytest

from repro.errors import ReproIOError
from repro.io import ResultsDirectory
from repro.resilient import ChaosSpec, SimulatedCrash, SupervisionPolicy
from repro.scheduler import DirectoryStore
from repro.telemetry import Telemetry

from .conftest import counters_without_noise, make_runner

FAST_POLICY = SupervisionPolicy(backoff_s=0.0)


def run_to_bytes(outdir, report, results):
    report.persist(results)
    with open(os.path.join(outdir, "campaign.json"), "rb") as handle:
        return handle.read()


def crash_then_resume(tmp_path, k, workers=0):
    """Crash after *k* committed units, resume, return the resumed run."""
    outdir = str(tmp_path / f"crash{k}w{workers}")
    results = ResultsDirectory(outdir)
    chaos = ChaosSpec(crash_after_units=k)
    crashed_telemetry = Telemetry()
    with pytest.raises(SimulatedCrash):
        make_runner(
            telemetry=crashed_telemetry,
            chaos=chaos,
            workers=workers,
            policy=FAST_POLICY,
        ).run(results)

    resumed_telemetry = Telemetry()
    report = make_runner(
        telemetry=resumed_telemetry,
        workers=workers,
        policy=FAST_POLICY,
    ).run(results, resume=True)
    return outdir, results, report, resumed_telemetry


@pytest.mark.parametrize("k", [1, 2, 3])
class TestCrashResumeSerial:
    def test_campaign_json_byte_identical(self, tmp_path, reference_run, k):
        outdir, results, report, _ = crash_then_resume(tmp_path, k)
        assert run_to_bytes(outdir, report, results) == (
            reference_run["campaign_bytes"]
        )

    def test_counters_identical_and_resume_visible(
        self, tmp_path, reference_run, k
    ):
        _, _, report, telemetry = crash_then_resume(tmp_path, k)
        assert counters_without_noise(telemetry) == reference_run["counters"]
        # The resume itself is visible, in its own counter namespace.
        counters = telemetry.metrics.counter_values()
        assert counters["resilient.resumed_units"] == k
        assert report.resumed_units == k
        assert report.ok


class TestCrashResumeParallel:
    def test_parallel4_resume_byte_identical(self, tmp_path, reference_run):
        outdir, results, report, telemetry = crash_then_resume(
            tmp_path, 2, workers=4
        )
        assert run_to_bytes(outdir, report, results) == (
            reference_run["campaign_bytes"]
        )
        assert counters_without_noise(telemetry) == reference_run["counters"]
        assert report.resumed_units == 2

    def test_parallel_interrupt_serial_resume(self, tmp_path, reference_run):
        # Crash under 4 workers, resume serially: the store is the
        # only state that matters, not the executor that wrote it.
        outdir = str(tmp_path / "cross")
        results = ResultsDirectory(outdir)
        with pytest.raises(SimulatedCrash):
            make_runner(
                telemetry=Telemetry(),
                chaos=ChaosSpec(crash_after_units=2),
                workers=4,
                policy=FAST_POLICY,
            ).run(results)
        report = make_runner(telemetry=Telemetry()).run(
            results, resume=True
        )
        assert run_to_bytes(outdir, report, results) == (
            reference_run["campaign_bytes"]
        )


class TestFaultSurvivalDeterminism:
    def test_retried_faults_leave_no_rng_trace(self, tmp_path, reference_run):
        # Acceptance criterion: transient faults + retries fire, yet
        # the artifact and the campaign counters are byte-identical --
        # zero RNG perturbation from the supervision machinery.
        outdir = str(tmp_path / "faulted")
        results = ResultsDirectory(outdir)
        chaos = ChaosSpec(
            units={
                "session1": ("raise", "ok"),
                "session3": ("raise", "raise", "ok"),
            }
        )
        telemetry = Telemetry()
        report = make_runner(
            telemetry=telemetry, chaos=chaos, policy=FAST_POLICY
        ).run(results)
        assert report.ok
        assert run_to_bytes(outdir, report, results) == (
            reference_run["campaign_bytes"]
        )
        assert counters_without_noise(telemetry) == reference_run["counters"]
        counters = telemetry.metrics.counter_values()
        assert counters["resilient.retries{unit_class=appcrash}"] == 3

    def test_quarantine_drops_only_the_poison_unit(self, tmp_path):
        outdir = str(tmp_path / "poison")
        results = ResultsDirectory(outdir)
        chaos = ChaosSpec(units={"session2": ("fatal",)})
        report = make_runner(chaos=chaos, policy=FAST_POLICY).run(results)
        assert not report.ok
        assert [r.key for r in report.failed_units] == ["session2"]
        labels = set(report.campaign_dict["sessions"])
        assert "session2" not in labels
        assert {"session1", "session3", "session4"} <= labels


class TestResumeGuards:
    def test_resume_refuses_config_mismatch(self, tmp_path):
        outdir = str(tmp_path / "mismatch")
        results = ResultsDirectory(outdir)
        with pytest.raises(SimulatedCrash):
            make_runner(chaos=ChaosSpec(crash_after_units=1)).run(results)
        from repro.engine import ExecutionContext
        from repro.resilient import ResilientCampaign

        other = ResilientCampaign(
            context=ExecutionContext(seed=999, time_scale=0.002)
        )
        with pytest.raises(ReproIOError, match="different configuration"):
            other.run(results, resume=True)

    def test_resume_after_torn_tail_salvages(self, tmp_path, reference_run):
        # A commit torn between the crash and the resume (a power cut
        # mid-write on a medium that lies about fsync) fails its
        # checksum: the resume quarantines it and flies that unit again.
        outdir = str(tmp_path / "torn")
        results = ResultsDirectory(outdir)
        with pytest.raises(SimulatedCrash):
            make_runner(chaos=ChaosSpec(crash_after_units=2)).run(results)
        commits = os.path.join(results.scheduler_dir(), "commits")
        names = sorted(os.listdir(commits))
        assert len(names) == 2
        torn = os.path.join(commits, names[-1])
        with open(torn, "rb") as handle:
            raw = handle.read()
        with open(torn, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        report = make_runner(telemetry=Telemetry()).run(results, resume=True)
        assert report.resumed_units == 1  # the torn unit reran
        assert run_to_bytes(outdir, report, results) == (
            reference_run["campaign_bytes"]
        )
        store = DirectoryStore(results.scheduler_dir())
        quarantined = store.quarantined_units()
        assert [(q["unit_id"], q["reason"]) for q in quarantined] == [
            (names[-1][: -len(".json")].replace("__", "/"), "decode-error")
        ]
        # The re-flown unit committed again, so a second resume
        # recovers all four.
        second = make_runner().run(results, resume=True)
        assert second.resumed_units == 4
        assert run_to_bytes(outdir, second, results) == (
            reference_run["campaign_bytes"]
        )

    def test_fully_complete_resume_flies_nothing(self, tmp_path, reference_run):
        outdir = str(tmp_path / "complete")
        results = ResultsDirectory(outdir)
        make_runner().run(results)
        report = make_runner(telemetry=Telemetry()).run(
            results, resume=True
        )
        assert report.resumed_units == 4
        assert all(r.status == "resumed" for r in report.unit_reports)
        assert run_to_bytes(outdir, report, results) == (
            reference_run["campaign_bytes"]
        )
