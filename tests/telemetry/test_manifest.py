"""RunManifest encoding, config hashing, and ResultsDirectory storage."""

import json

import pytest

from repro.errors import AnalysisError, TelemetryError
from repro.io import ResultsDirectory
from repro.telemetry import RunManifest, stable_config_hash
from repro.telemetry.manifest import MANIFEST_SCHEMA


def make_manifest(**overrides):
    fields = dict(
        seed=2023,
        time_scale=0.05,
        executor="serial",
        workers=1,
        version="1.0.0",
        config_hash="abc123",
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestStableConfigHash:
    def test_stable_across_calls(self):
        config = {"seed": 1, "plans": [{"label": "s1"}]}
        assert stable_config_hash(config) == stable_config_hash(config)

    def test_key_order_does_not_matter(self):
        assert stable_config_hash({"a": 1, "b": 2}) == stable_config_hash(
            {"b": 2, "a": 1}
        )

    def test_different_configs_differ(self):
        assert stable_config_hash({"seed": 1}) != stable_config_hash(
            {"seed": 2}
        )

    def test_short_hex(self):
        digest = stable_config_hash({"seed": 1})
        assert len(digest) == 16
        int(digest, 16)  # hex-decodable


class TestRoundtrip:
    def test_dict_roundtrip(self):
        manifest = make_manifest(
            stages={"campaign.run": 1.5},
            metrics={"counters": [], "gauges": [], "histograms": []},
            spans=[],
            command="repro-campaign run out",
        )
        clone = RunManifest.from_dict(manifest.to_dict())
        assert clone == manifest

    def test_json_roundtrip(self):
        manifest = make_manifest()
        assert RunManifest.from_json(manifest.to_json()) == manifest

    def test_schema_field_is_stamped(self):
        assert make_manifest().to_dict()["schema"] == MANIFEST_SCHEMA

    def test_created_iso(self):
        manifest = make_manifest(created_unix=0.0)
        assert manifest.created_iso == "1970-01-01T00:00:00Z"


class TestRejection:
    def test_wrong_schema_rejected(self):
        data = make_manifest().to_dict()
        data["schema"] = 99
        with pytest.raises(TelemetryError, match="schema"):
            RunManifest.from_dict(data)

    def test_missing_field_rejected(self):
        data = make_manifest().to_dict()
        del data["seed"]
        with pytest.raises(TelemetryError, match="malformed"):
            RunManifest.from_dict(data)

    def test_non_object_rejected(self):
        with pytest.raises(TelemetryError):
            RunManifest.from_dict([1, 2, 3])

    def test_invalid_json_rejected(self):
        with pytest.raises(TelemetryError, match="JSON"):
            RunManifest.from_json("{not json")


class TestResultsDirectoryStorage:
    def test_save_and_load(self, tmp_path):
        results = ResultsDirectory(tmp_path / "out")
        manifest = make_manifest(stages={"cli.fly": 0.25})
        results.save_manifest(manifest)
        assert results.load_manifest() == manifest

    def test_saved_file_is_sorted_json(self, tmp_path):
        results = ResultsDirectory(tmp_path / "out")
        results.save_manifest(make_manifest())
        raw = (tmp_path / "out" / "manifest.json").read_text()
        data = json.loads(raw)
        assert list(data) == sorted(data)

    def test_load_missing_raises_readable_error(self, tmp_path):
        results = ResultsDirectory(tmp_path / "empty")
        with pytest.raises(AnalysisError, match="manifest"):
            results.load_manifest()
