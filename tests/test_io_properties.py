"""Property-based round-trip tests for the persistence layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beam.fluence import FluenceAccount
from repro.harness.campaign import CampaignResult
from repro.harness.session import SessionPlan, SessionResult, run_schedule
from repro.injection.events import FailureEvent, OutcomeKind, UpsetEvent
from repro.injection.injector import InjectionSummary
from repro.io.json_store import campaign_from_dict, campaign_to_dict
from repro.soc.dvfs import OperatingPoint
from repro.soc.edac import EdacLog, EdacRecord, EdacSeverity
from repro.soc.geometry import CacheLevel

FAILURE_KINDS = [OutcomeKind.SDC, OutcomeKind.APP_CRASH, OutcomeKind.SYS_CRASH]

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)

upsets = st.builds(
    UpsetEvent,
    time_s=times,
    array=st.sampled_from(["soc.l3", "pair0.l2", "core3.l1d"]),
    level=st.sampled_from([lvl.value for lvl in CacheLevel]),
    bits=st.integers(min_value=1, max_value=4),
    corrected=st.booleans(),
)

failures = st.builds(
    FailureEvent,
    time_s=times,
    benchmark=st.sampled_from(["CG", "EP", "FT", "IS", "LU", "MG"]),
    kind=st.sampled_from(FAILURE_KINDS),
    hw_notified=st.booleans(),
)

edac_records = st.builds(
    EdacRecord,
    time_s=times,
    array=st.sampled_from(["soc.l3", "pair1.l2"]),
    level=st.sampled_from(list(CacheLevel)),
    severity=st.sampled_from(list(EdacSeverity)),
    bits=st.integers(min_value=1, max_value=3),
)


def build_campaign(upset_list, failure_list, edac_list) -> CampaignResult:
    plan = SessionPlan(
        "session1",
        OperatingPoint("Nominal", 2400, 980, 950),
        max_minutes=100.0,
    )
    fluence = FluenceAccount()
    fluence.expose(1.5e6, 600.0)
    counts = {}
    for upset in upset_list:
        level = next(l for l in CacheLevel if l.value == upset.level)
        severity = EdacSeverity.CE if upset.corrected else EdacSeverity.UE
        counts[(level, severity)] = counts.get((level, severity), 0) + 1
    edac = EdacLog()
    for record in edac_list:
        edac.log(record)
    session = SessionResult(
        plan=plan,
        fluence=fluence,
        upsets=InjectionSummary(
            upsets=list(upset_list), duration_s=600.0, counts=counts
        ),
        failures=sorted(failure_list, key=lambda f: f.time_s),
        edac=edac,
        # A plan without a stopping rule flies its whole schedule.
        runs_flown=len(run_schedule(plan)),
    )
    result = CampaignResult(sram_bits=80_236_544)
    result.sessions["session1"] = session
    return result


class TestRoundtripProperties:
    @given(
        upset_list=st.lists(upsets, max_size=20),
        failure_list=st.lists(failures, max_size=20),
        edac_list=st.lists(edac_records, max_size=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_preserves_everything(
        self, upset_list, failure_list, edac_list
    ):
        campaign = build_campaign(upset_list, failure_list, edac_list)
        reloaded = campaign_from_dict(campaign_to_dict(campaign))
        original = campaign.session("session1")
        restored = reloaded.session("session1")

        assert restored.upsets.upsets == original.upsets.upsets
        assert restored.failures == original.failures
        assert restored.upsets.counts == original.upsets.counts
        assert restored.plan == original.plan
        assert len(restored.edac) == len(original.edac)
        assert restored.fluence.fluence_per_cm2 == pytest.approx(
            original.fluence.fluence_per_cm2
        )

    @given(failure_list=st.lists(failures, min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_failure_counts_invariant(self, failure_list):
        campaign = build_campaign([], failure_list, [])
        reloaded = campaign_from_dict(campaign_to_dict(campaign))
        assert (
            reloaded.session("session1").failure_counts()
            == campaign.session("session1").failure_counts()
        )
