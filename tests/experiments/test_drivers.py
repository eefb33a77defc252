"""Every experiment driver runs and produces paper-shaped output.

Drivers that consume session data share one cached small campaign
(seed/time_scale fixed here), so the whole module stays fast.
"""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.config import shared_campaign

SEED = 101
SCALE = 0.12


@pytest.fixture(scope="module", autouse=True)
def warm_campaign():
    # Prime the shared cache once for all drivers in this module.
    shared_campaign(SEED, SCALE)


def run(experiment_id):
    return run_experiment(experiment_id, seed=SEED, time_scale=SCALE)


class TestAllDrivers:
    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_driver_runs_and_renders(self, experiment_id):
        result = run(experiment_id)
        assert result.experiment_id == experiment_id
        text = result.render()
        assert result.table.title in text
        assert result.table.rows

    def test_unknown_experiment_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_experiment("fig99")


class TestTable2Driver:
    def test_voltage_column(self):
        table = run("table2").table
        assert table.column("Voltage (mV)") == [980, 930, 920, 790]

    def test_series_rates_scale_invariant(self):
        series = run("table2").series
        for rate in series["upset_rates"]:
            assert 0.6 < rate < 1.7


class TestTable3Driver:
    def test_matches_paper_exactly(self):
        series = run("table3").series
        assert series["points"] == [
            ("Nominal", 2400, 980, 950),
            ("Safe", 2400, 930, 925),
            ("Vmin", 2400, 920, 920),
            ("Vmin@900MHz", 900, 790, 950),
        ]


class TestFig4Driver:
    def test_safe_vmins(self):
        series = run("fig4").series
        assert series["safe_vmin_mv"][2400] == 920
        assert series["safe_vmin_mv"][900] == 790

    def test_curves_monotone_trend(self):
        curves = run("fig4").series["curves"]
        for freq, curve in curves.items():
            voltages = sorted(curve, reverse=True)
            # pfail at the top of the sweep is 0, at the bottom 1.
            assert curve[voltages[0]] == 0.0
            assert curve[voltages[-1]] == 1.0


class TestFig5Driver:
    def test_totals_increase_with_undervolt(self):
        totals = run("fig5").series["rates"]["Total"]
        assert totals[0] < totals[-1]

    def test_all_benchmarks_present(self):
        rates = run("fig5").series["rates"]
        assert set(rates) == {"CG", "LU", "FT", "EP", "MG", "IS", "Total"}


class TestFig6Fig7Drivers:
    def test_fig6_l3_dominates(self):
        rates = run("fig6").series["rates"]
        l3 = rates[("L3 Cache", "CE")]
        l1 = rates[("L1 Cache", "CE")]
        assert all(a > b for a, b in zip(l3, l1))

    def test_fig7_l2_holds_up_against_fig6_l2(self):
        # In expectation the deep-undervolt PMD session upsets the L2
        # more (0.30 vs 0.19/min), but at this module's scale session4
        # realizes only a handful of L2 events, so a strict ordering
        # assert fails for ~25% of seeds -- and a single seed picked to
        # pass is just a lucky draw.  The seed ladder asserts the
        # Poisson-slackened ordering at 4 of 5 rungs instead; the
        # strict expectation-level ordering is pinned deterministically
        # in the calibration tests.
        from repro.validate import SeedLadder

        def trial(seed):
            fig6_l2 = run_experiment(
                "fig6", seed=seed, time_scale=SCALE
            ).series["rates"][("L2 Cache", "CE")][-1]
            fig7_l2 = run_experiment(
                "fig7", seed=seed, time_scale=SCALE
            ).series["rates"][("L2 Cache", "CE")]
            return int(fig7_l2 > 0.6 * fig6_l2), 1

        ladder = SeedLadder((SEED, 211, 212, 213, 214))
        gate = ladder.run_counting(
            "drivers/fig7_vs_fig6_l2", trial, required_hits=4
        )
        assert gate.ok, gate.render()


class TestFig8Driver:
    def test_sdc_share_rises(self):
        mixes = run("fig8").series["mixes_pct"]
        assert mixes[920]["SDC"] > mixes[980]["SDC"]


class TestFig9Fig10Drivers:
    def test_fig9_matches_paper(self):
        # The paper's power/rate values live in the golden registry;
        # the driver's deterministic series must pass its gates.
        from repro.validate import default_registry

        series = run("fig9").series
        gates = default_registry().check(
            "fig9",
            {
                "power_watts": series["power_watts"],
                "upsets_per_min": series["upsets_per_min"],
            },
        )
        failed = [g for g in gates if not g.ok]
        assert not failed, "\n".join(g.render() for g in failed)

    def test_fig10_shape(self):
        series = run("fig10").series
        savings = series["power_savings_pct"]
        assert savings == sorted(savings)
        assert savings[-1] > 40.0


class TestFig11Fig13Drivers:
    def test_fig11_sdc_increase(self):
        series = run("fig11").series
        assert series["sdc_increase_x"] > 3.0
        assert series["total_increase_x"] > 1.5

    def test_fig12_without_dominates(self):
        split = run("fig12").series["sdc_fit"]
        assert split[920]["without"] > split[920]["with"]

    def test_fig13_runs(self):
        split = run("fig13").series["sdc_fit"]
        assert split["without"] >= 0.0
