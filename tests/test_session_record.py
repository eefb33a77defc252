"""The compact session record: rendered runs, decode checks, Fig. 5.

A flown session keeps only its runs' number and the runs that struck or
failed something; ``campaign.json``'s per-run list is rendered from the
plan's schedule.  Decoding goes the other way and checks every row
against that schedule, so a list that drifted from it by one ulp is
refused instead of being analysed.
"""

import copy
import json
import math

import pytest

from repro.core.analysis import CampaignAnalysis
from repro.errors import AnalysisError, ReproIOError
from repro.harness.campaign import Campaign
from repro.io.json_store import (
    campaign_from_dict,
    campaign_to_dict,
    render_session,
    session_to_dict,
)

#: ``benchmark_upset_rates`` of ``Campaign(seed=2023, time_scale=0.05)``
#: as the per-run implementation computed it: per label and benchmark,
#: ``(events, minutes, rate, lower, upper)``.
PARENT_RATES = {
    "session1": {
        "CG": (11, 11.309999999999953, 0.9725906277630456, 0.4855137371562212, 1.7402332903007989),
        "EP": (17, 13.473333333333283, 1.2617516081147993, 0.7350168087288963, 2.0201865523928784),
        "FT": (24, 16.52999999999991, 1.4519056261343093, 0.9302633305920475, 2.1603204835906475),
        "IS": (14, 8.233333333333288, 1.7004048582996043, 0.9296271590648553, 2.8529904196561584),
        "LU": (14, 18.270000000000053, 0.7662835249042123, 0.41893433367819255, 1.285693547993186),
        "MG": (23, 14.733333333333329, 1.5610859728506792, 0.9895945952745263, 2.3423954453506592),
    },
    "session2": {
        "CG": (16, 11.093333333333288, 1.4423076923076983, 0.8244034663739394, 2.342217331510912),
        "EP": (19, 13.17499999999993, 1.4421252371916584, 0.8682535988134189, 2.252057197084307),
        "FT": (19, 16.186666666666593, 1.1738056013179625, 0.7067076501874044, 1.8330428483269599),
        "IS": (4, 8.074999999999957, 0.49535603715170545, 0.1349678481270998, 1.2683081950964394),
        "LU": (20, 17.92000000000005, 1.1160714285714253, 0.6817254232926289, 1.7236818026046041),
        "MG": (13, 14.449999999999996, 0.8996539792387546, 0.4790278540487061, 1.5384357036788152),
    },
    "session3": {
        "CG": (2, 1.906666666666669, 1.0489510489510476, 0.12703283839718432, 3.7891718537013728),
        "EP": (2, 2.2733333333333348, 0.8797653958944276, 0.10654367091376755, 3.178015103104379),
        "FT": (4, 2.786666666666667, 1.435406698564593, 0.3911000144592075, 3.675211247154435),
        "IS": (0, 1.3616666666666668, 0.0, 0.0, 2.709091398370087),
        "LU": (2, 3.0799999999999987, 0.6493506493506496, 0.07863937615063804, 2.3456778141960917),
        "MG": (3, 2.436666666666666, 1.2311901504787965, 0.2539010080282907, 3.5980600833415837),
    },
    "session4": {
        "CG": (1, 1.1433333333333346, 0.8746355685131185, 0.022143855379845364, 4.873157484786202),
        "EP": (2, 1.3433333333333335, 1.4888337468982629, 0.18030467385406826, 5.378179405253568),
        "FT": (3, 1.6466666666666658, 1.8218623481781386, 0.3757118155236448, 5.324254900653235),
        "IS": (1, 0.8233333333333329, 1.2145748987854257, 0.030750374069987745, 6.767178207618098),
        "LU": (1, 1.8200000000000012, 0.549450549450549, 0.013910883507851583, 3.0613425224938977),
        "MG": (1, 1.473333333333333, 0.6787330316742083, 0.017184032568522557, 3.7816584101395243),
    },
}


@pytest.fixture(scope="module")
def campaign():
    return Campaign(seed=2023, time_scale=0.05).run()


@pytest.fixture(scope="module")
def encoded(campaign):
    return campaign_to_dict(campaign)


def _rates(campaign, label):
    return {
        bench: (
            estimate.events,
            estimate.minutes,
            estimate.interval.value,
            estimate.interval.lower,
            estimate.interval.upper,
        )
        for bench, estimate in CampaignAnalysis(campaign)
        .benchmark_upset_rates(label)
        .items()
    }


class TestFig5Rates:
    def test_live_record_gives_the_per_run_values(self, campaign):
        for label, expected in PARENT_RATES.items():
            assert _rates(campaign, label) == expected, label

    def test_decoded_record_gives_the_per_run_values(self, encoded):
        decoded = campaign_from_dict(copy.deepcopy(encoded))
        for label, expected in PARENT_RATES.items():
            assert _rates(decoded, label) == expected, label


class TestRecord:
    def test_only_busy_runs_are_kept(self, campaign):
        for label in campaign.labels():
            session = campaign.session(label)
            assert 0 < len(session.busy_runs) < session.runs_flown
            for index, counts, failure_count in session.busy_runs:
                assert counts or failure_count
            assert (
                sum(n for _, c, _ in session.busy_runs for n in c.values())
                == session.upset_count
            )
            assert (
                sum(f for _, _, f in session.busy_runs)
                == session.failure_count
            )

    def test_json_round_trip_renders_the_same_bytes(self, campaign):
        for label in campaign.labels():
            record = session_to_dict(campaign.session(label))
            reread = json.loads(json.dumps(record))
            assert json.dumps(render_session(reread)) == json.dumps(
                render_session(record)
            )

    def test_decoding_keeps_every_run_row(self, encoded):
        again = campaign_to_dict(campaign_from_dict(copy.deepcopy(encoded)))
        for label, session in encoded["sessions"].items():
            assert again["sessions"][label]["runs"] == session["runs"]

    @pytest.mark.parametrize(
        "change, match",
        [
            (lambda r: r["busy_runs"].append([r["runs_flown"], {}, 1]), "busy run"),
            (lambda r: r["busy_runs"].reverse(), "busy run"),
            (lambda r: r.update(runs_flown=r["runs_flown"] * 2), "schedules"),
        ],
    )
    def test_a_record_that_disagrees_with_its_schedule_is_refused(
        self, campaign, change, match
    ):
        record = session_to_dict(campaign.session("session1"))
        change(record)
        with pytest.raises(ReproIOError, match=match):
            render_session(record)


def _tampered(encoded, change):
    data = copy.deepcopy(encoded)
    change(data["sessions"]["session2"]["runs"])
    return data


class TestDecodeRefusals:
    def test_one_ulp_in_one_start_is_refused(self, encoded):
        def nudge(runs):
            runs[7]["start_s"] = math.nextafter(runs[7]["start_s"], math.inf)

        with pytest.raises(AnalysisError, match="run 7"):
            campaign_from_dict(_tampered(encoded, nudge))

    def test_a_changed_duration_is_refused(self, encoded):
        def stretch(runs):
            runs[-1]["duration_s"] *= 2

        with pytest.raises(AnalysisError, match="schedule"):
            campaign_from_dict(_tampered(encoded, stretch))

    def test_a_swapped_benchmark_is_refused(self, encoded):
        def swap(runs):
            runs[0]["benchmark"], runs[1]["benchmark"] = (
                runs[1]["benchmark"],
                runs[0]["benchmark"],
            )

        with pytest.raises(AnalysisError, match="run 0"):
            campaign_from_dict(_tampered(encoded, swap))

    def test_nonzero_recovery_is_refused(self, encoded):
        def recover(runs):
            runs[3]["recovery_s"] = 1.5

        with pytest.raises(AnalysisError, match="recovery_s"):
            campaign_from_dict(_tampered(encoded, recover))

    def test_a_dropped_run_is_refused_without_a_stopping_rule(self, encoded):
        with pytest.raises(AnalysisError, match="run\\(s\\)"):
            campaign_from_dict(_tampered(encoded, list.pop))

    def test_an_extra_run_is_refused(self, encoded):
        def extend(runs):
            runs.append(dict(runs[-1]))

        with pytest.raises(AnalysisError, match="run\\(s\\)"):
            campaign_from_dict(_tampered(encoded, extend))
