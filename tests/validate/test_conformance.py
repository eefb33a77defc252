"""The conformance and statistical suites, including the perturbation
acceptance criteria: a healthy repo passes at the documented
tolerances, and corrupting either the golden values or the injector's
sigma(V) calibration fails with a report naming the offending artifact.
"""

import importlib
import json
import os
import shutil

import pytest

from repro.errors import ValidationError
from repro.validate import (
    OracleRegistry,
    run_conformance,
    run_statistical,
    run_suites,
)
from repro.validate.conformance import MEASUREMENTS, SUITES
from repro.validate.oracles import GOLDEN_DIR
from repro.telemetry import Telemetry

#: Seed/scale for the passing runs: cached by experiments.config, so
#: the suite reuses one campaign across this module and the CLI tests.
SEED = 2023
SCALE = 0.2


class TestConformancePasses:
    def test_all_artifacts_pass_at_documented_tolerances(self):
        result = run_conformance(seed=SEED, time_scale=SCALE)
        failed = [g.render() for g in result.failures]
        assert result.ok, "\n".join(failed)
        assert len(result.gates) > 80

    def test_subset_of_artifacts_selectable(self):
        result = run_conformance(
            seed=SEED, time_scale=SCALE, artifacts=["table1"]
        )
        assert result.ok
        assert all(g.gate.startswith("table1/") for g in result.gates)

    def test_unknown_artifact_rejected(self):
        with pytest.raises(ValidationError):
            run_conformance(artifacts=["fig99"])

    def test_telemetry_records_measurement_spans(self):
        telemetry = Telemetry()
        run_conformance(
            seed=SEED,
            time_scale=SCALE,
            artifacts=["table1"],
            telemetry=telemetry,
        )
        spans = telemetry.tracer.to_list()
        assert any(s["name"] == "validate.measure" for s in spans)


class TestGoldenPerturbation:
    """Acceptance criterion: a corrupted golden value must fail loudly."""

    @pytest.fixture()
    def perturbed_registry(self, tmp_path):
        golden = tmp_path / "golden"
        shutil.copytree(GOLDEN_DIR, golden)
        path = golden / "table2.json"
        data = json.loads(path.read_text())
        # Pretend the paper reported ~5x the upsets session 1 saw.
        data["oracles"]["upsets_fixed"]["expected"][0] = 8000
        path.write_text(json.dumps(data))
        return OracleRegistry(str(golden))

    def test_fails_naming_the_offending_artifact(self, perturbed_registry):
        result = run_conformance(
            seed=SEED,
            time_scale=SCALE,
            artifacts=["table2"],
            registry=perturbed_registry,
        )
        assert not result.ok
        failed = result.failures
        assert any(g.gate == "table2/upsets_fixed[0]" for g in failed)
        # Everything this perturbation did not touch still passes.
        assert all(g.gate.startswith("table2/upsets_fixed") for g in failed)


def _scaled(value, factor):
    """*value* with every number in it (not its keys) times *factor*."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value * factor
    if isinstance(value, dict):
        return {key: _scaled(item, factor) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_scaled(item, factor) for item in value)
    return value


class TestGatesSeeTheDrivers:
    """Conformance measures every campaign-backed artifact from its
    experiment driver's series, so a driver that misreports fails."""

    @pytest.mark.parametrize(
        "artifact, factor",
        [
            ("table2", 3),
            ("fig5", 3),
            ("fig6", 3),
            ("fig7", 3),
            ("fig11", 3),
            ("fig12", 3),
            # Figs. 8 and 13 gate shares, which a uniform scale leaves
            # unchanged; only the narrower Wilson interval of the
            # inflated counts shows it, and at this scale (Fig. 13 has
            # a single SDC) that takes a hundredfold misreport.
            ("fig8", 100),
            ("fig13", 100),
        ],
    )
    def test_misreporting_driver_fails_its_gates(
        self, artifact, factor, monkeypatch
    ):
        driver = importlib.import_module(f"repro.experiments.{artifact}")
        honest = driver.run

        def misreporting(**kwargs):
            result = honest(**kwargs)
            result.series = _scaled(result.series, factor)
            return result

        monkeypatch.setattr(driver, "run", misreporting)
        result = run_conformance(
            seed=SEED, time_scale=SCALE, artifacts=[artifact]
        )
        assert not result.ok
        assert all(g.gate.startswith(f"{artifact}/") for g in result.failures)


class TestSlopePerturbation:
    """Acceptance criterion: a sigma(V) calibration regression must
    fail the suite, with the report naming the affected figures."""

    def test_fig9_fails_under_tripled_l3_slope(self, monkeypatch):
        from repro.injection import calibration
        from repro.soc.geometry import CacheLevel

        healthy = run_conformance(
            seed=SEED, time_scale=SCALE, artifacts=["fig9"]
        )
        assert healthy.ok, "\n".join(g.render() for g in healthy.failures)

        monkeypatch.setitem(
            calibration.LEVEL_VOLTAGE_SLOPES,
            CacheLevel.L3,
            calibration.LEVEL_VOLTAGE_SLOPES[CacheLevel.L3] * 3.0,
        )
        # fig9 is rebuilt from the rate models on every run, so the
        # regression shows without re-flying a campaign.
        result = run_conformance(
            seed=SEED, time_scale=SCALE, artifacts=["fig9"]
        )
        assert not result.ok
        assert any(
            g.gate.startswith("fig9/upsets_per_min") for g in result.failures
        )


class TestStatisticalSuite:
    def test_seed_ladder_suite_passes(self):
        # Three rungs at a small scale keep this under a few seconds
        # while still pooling enough events for every gate.
        result = run_statistical(seeds=(101, 102, 103), time_scale=0.05)
        assert result.ok, "\n".join(g.render() for g in result.failures)
        names = [g.gate for g in result.gates]
        assert "statistical/upset_ci_coverage" in names
        assert any(n.startswith("statistical/dispersion/") for n in names)
        assert "statistical/sdc_share_vmin" in names


class TestRunSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValidationError):
            run_suites(suites=["vibes"])

    def test_report_aggregates_and_renders(self):
        report = run_suites(
            suites=["conformance"], seed=SEED, time_scale=SCALE
        )
        assert report.ok
        text = report.render()
        assert "conformance suite: PASS" in text
        assert "validation: PASS" in text
        data = report.to_dict()
        assert data["schema"] == 1
        assert [s["suite"] for s in data["suites"]] == ["conformance"]

    def test_suite_names_stable(self):
        assert SUITES == ("conformance", "differential", "statistical")
        assert sorted(MEASUREMENTS) == sorted(
            ["table1", "table2", "table3", "tech"]
            + [f"fig{i}" for i in range(4, 14)]
        )

    def test_failed_report_lists_gate_names(self, tmp_path):
        golden = tmp_path / "golden"
        shutil.copytree(GOLDEN_DIR, golden)
        path = golden / "table1.json"
        data = json.loads(path.read_text())
        data["oracles"]["total_capacity_bits"]["expected"] = 1
        path.write_text(json.dumps(data))
        result = run_conformance(
            artifacts=["table1"], registry=OracleRegistry(str(golden))
        )
        from repro.validate import ConformanceReport

        report = ConformanceReport(seed=SEED, time_scale=SCALE)
        report.suites.append(result)
        text = report.render()
        assert "validation: FAIL" in text
        assert "table1/total_capacity_bits" in text
