"""Registry and CLI."""

import pytest

from repro.errors import AnalysisError
from repro.experiments import registry
from repro.experiments.registry import EXPERIMENTS, main


class TestRegistry:
    def test_all_artifacts_present(self):
        assert set(EXPERIMENTS) == {
            "table2", "table3",
            "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig11", "fig12", "fig13",
            "ablation-interleave", "ablation-ecc", "ablation-slope",
            "ablation-scrub", "ablation-checkpoint",
            "ext-masking", "ext-viruses", "explorer",
        }


class TestCli:
    def test_single_experiment(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out

    def test_csv_mode(self, capsys):
        assert main(["table3", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Setting,")

    def test_seed_and_scale_flags(self, capsys):
        assert main(["fig10", "--seed", "3", "--time-scale", "0.01"]) == 0

    def test_unknown_experiment_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_driver_error_is_one_line_and_exit_1(self, capsys):
        # At this scale session 2 flies no failures, so fig8 cannot
        # measure its outcome mix: a one-line error, not a traceback.
        assert main(["fig8", "--time-scale", "0.01"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: fig8: session 'session2' observed no failures\n"
        )
        assert captured.out == ""

    def test_all_keeps_going_past_a_failing_artifact(
        self, capsys, monkeypatch
    ):
        def _cannot_measure(seed, time_scale):
            raise AnalysisError("session 'session2' observed no failures")

        monkeypatch.setattr(
            registry,
            "EXPERIMENTS",
            {
                "fig8": _cannot_measure,
                "fig9": EXPERIMENTS["fig9"],
                "table3": EXPERIMENTS["table3"],
            },
        )
        assert main(["all"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: fig8: session 'session2' observed no failures"
        ]
        assert "Figure 9" in captured.out
        assert "Table 3" in captured.out
