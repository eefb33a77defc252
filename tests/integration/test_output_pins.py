"""Output bytes pinned across commits.

Repeatability and serial == parallel compare a tree with itself, so a
change that moves one RNG draw, reorders two, or re-associates one
float expression passes both.  This module pins the sha256 of
``campaign.json`` and of every ``.dmesg`` that two ``run`` specs write,
one of them also through a worker pool, and of a full-length
``campaign.json``.  It also pins the counters ``run --telemetry``
records, which a physics loop can lose while keeping every output byte,
and one campaign flown on the scalar reference injector.  A change to
the physics loop must keep these pins, or move the RNG stream on
purpose behind a versioned stream and re-pin here with the reason.

The digests were taken on CPython 3.11.7 with numpy 2.4.6, and hold
under any ``PYTHONHASHSEED``.  A numpy release that changes a
generator's stream fails this module on purpose.
"""

import dataclasses
import hashlib
import json
import math
import os

import pytest

from repro.cli import main
from repro.harness.campaign import Campaign
from repro.injection.propagation import OutcomeModel
from repro.io.json_store import campaign_to_dict
from repro.telemetry import MetricsRegistry

BASELINE = ("--seed", "2023", "--time-scale", "0.05")
NODE_7NM = ("--seed", "7", "--time-scale", "0.05", "--node", "7nm")
FULL = ("--seed", "2023", "--time-scale", "1.0")

#: Spec argv -> {file name: sha256 of its bytes}.
PINS = {
    BASELINE: {
        "campaign.json": "244753b616aecd2207077cd27ea3063a9a5b208cb5b0e69583fcd21bf86b669b",
        "session1.dmesg": "58736c7b290b3c0b8ade1a28dc5e4f38bd30537df397241eb47f884870d84977",
        "session2.dmesg": "9dbe432c1c7c933dd0f45c1edd8325a88af4842b281cb35f098a431b61928a25",
        "session3.dmesg": "6a2a13ac5d83b462b263c83a0bc61dc6f605483fdb23069fb40f9b803a28c7db",
        "session4.dmesg": "3d53f2122f7507902b8b66093a4cdb3498760adba03e7e7c68744e3e60b5f22d",
    },
    NODE_7NM: {
        "campaign.json": "9909e56c5fec8eb14a17c46a8ef5891f25a58283a1aa4b7f21612d754f99fc78",
        "session1.dmesg": "59e627b1bbee7f06ccfb6c9799876f4dcc9c794f020558af5eba07cb5c405f1e",
        "session2.dmesg": "4b614e39103a025bdbce1d5519926ab4a22f56e8f3b2ca1fd630b9ade4a6337e",
        "session3.dmesg": "bb7e96978b638218e6987a71eb2afbb6dc12d180de9f7e2e72d4b69ab7086d67",
        "session4.dmesg": "c3309bbbfda0738b3f491405cd4c92d56cfc8fefcbae451919b88b048a143a2f",
    },
}

#: sha256 of the full-length ``campaign.json`` (72,426 runs).
FULL_CAMPAIGN = "b29580964d41e9495940ae24192f0a6598345b78614bc08fbc0aef1571962d2c"

#: sha256 of ``campaign_to_dict`` JSON for BASELINE's campaign flown
#: on the scalar reference injector (``Campaign(vectorized=False)``).
SCALAR_CAMPAIGN = "766a3bd90ecca00b61a7ed854ab887db8b06151a47d55b41f5138c799b448b8a"

#: Every counter ``run BASELINE --telemetry`` writes to its manifest.
BASELINE_COUNTERS = {
    "engine.units": 4,
    "injector.events{level=L1 Cache}": 5,
    "injector.events{level=L2 Cache}": 31,
    "injector.events{level=L3 Cache}": 171,
    "injector.events{level=TLBs}": 7,
    "injector.exposures": 3516,
    "injector.upsets{level=L1 Cache,severity=CE}": 8,
    "injector.upsets{level=L2 Cache,severity=CE}": 35,
    "injector.upsets{level=L3 Cache,severity=CE}": 157,
    "injector.upsets{level=L3 Cache,severity=UE}": 9,
    "injector.upsets{level=TLBs,severity=CE}": 7,
    "scheduler.completed": 4,
    "scheduler.leased": 4,
    "scheduler.submissions": 1,
    "scheduler.submitted": 4,
    "session.failures{kind=AppCrash}": 2,
    "session.failures{kind=SDC}": 12,
    "session.failures{kind=SysCrash}": 4,
    "session.flown": 4,
    "session.runs{kind=AppCrash}": 2,
    "session.runs{kind=SDC}": 12,
    "session.runs{kind=SysCrash}": 4,
    "session.runs{kind=ok}": 3498,
}

#: Run id -> (spec argv, executor argv).  A pooled run owes the
#: serial run's bytes.
RUNS = {
    "serial": (BASELINE, ()),
    "pooled": (BASELINE, ("--workers", "2")),
    "7nm": (NODE_7NM, ()),
}


def digests(outdir, argv):
    """Run ``run OUTDIR ARGV``; the sha256 of each pinned file."""
    assert main(["run", str(outdir), *argv]) == 0
    found = {}
    for name in sorted(os.listdir(outdir)):
        if name == "campaign.json" or name.endswith(".dmesg"):
            with open(os.path.join(outdir, name), "rb") as handle:
                found[name] = hashlib.sha256(handle.read()).hexdigest()
    return found


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_bytes_match_the_pins(tmp_path, run):
    spec, executor = RUNS[run]
    assert digests(tmp_path / "out", spec + executor) == PINS[spec]


def test_full_length_campaign_matches_the_pin(tmp_path):
    found = digests(tmp_path / "out", FULL)
    assert found["campaign.json"] == FULL_CAMPAIGN
    # The commits hold compact session records, not every run.
    commits = tmp_path / "out" / "scheduler" / "commits"
    names = os.listdir(commits)
    assert len(names) == 4
    assert sum(os.path.getsize(commits / name) for name in names) <= 1_000_000


def test_telemetry_counters_match_the_pin(tmp_path):
    outdir = tmp_path / "out"
    assert main(["run", str(outdir), *BASELINE, "--telemetry"]) == 0
    with open(outdir / "manifest.json") as handle:
        metrics = json.load(handle)["metrics"]
    counters = MetricsRegistry.from_dict(metrics).counter_values()
    assert counters == BASELINE_COUNTERS


def test_scalar_reference_campaign_matches_the_pin():
    campaign = Campaign(seed=2023, time_scale=0.05, vectorized=False).run()
    encoded = json.dumps(campaign_to_dict(campaign)).encode()
    assert hashlib.sha256(encoded).hexdigest() == SCALAR_CAMPAIGN


def test_one_ulp_in_one_failure_time_breaks_the_pin(tmp_path, monkeypatch):
    original = OutcomeModel.sample_failures
    moved = []

    def nudged(self, *args, **kwargs):
        events = original(self, *args, **kwargs)
        if events and not moved:
            first = events[0]
            events[0] = dataclasses.replace(
                first, time_s=math.nextafter(first.time_s, math.inf)
            )
            moved.append(first)
        return events

    monkeypatch.setattr(OutcomeModel, "sample_failures", nudged)
    found = digests(tmp_path / "out", BASELINE)
    assert moved
    assert found["campaign.json"] != PINS[BASELINE]["campaign.json"]
