"""Crash-safe I/O primitives: atomic write-rename and salvage reads."""

import json
import os
import stat

import pytest

from repro.errors import ReproIOError
from repro.io import (
    ResultsDirectory,
    atomic_write_json,
    atomic_write_text,
    read_json_or_default,
)


class TestAtomicWriteText:
    def test_writes_content(self, tmp_path):
        path = str(tmp_path / "artifact.txt")
        returned = atomic_write_text(path, "hello\n")
        assert returned == path
        with open(path) as handle:
            assert handle.read() == "hello\n"

    def test_overwrites_previous_content(self, tmp_path):
        path = str(tmp_path / "artifact.txt")
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        with open(path) as handle:
            assert handle.read() == "new"

    def test_no_tmp_litter_on_success(self, tmp_path):
        atomic_write_text(str(tmp_path / "a.txt"), "x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]

    def test_failed_replace_preserves_old_content(self, tmp_path, monkeypatch):
        # A crash between temp-write and rename must leave the previous
        # artifact untouched -- and no temp litter behind.
        path = str(tmp_path / "a.json")
        atomic_write_text(path, "precious")

        def broken_replace(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            atomic_write_text(path, "torn")
        monkeypatch.undo()
        with open(path) as handle:
            assert handle.read() == "precious"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]

    def test_mode_follows_the_umask_like_open(self, tmp_path):
        # tempfile.mkstemp would create 0600 whatever the umask; an
        # artifact gets the mode a plain open() gives it.
        previous = os.umask(0o022)
        try:
            plain = str(tmp_path / "plain.txt")
            with open(plain, "w") as handle:
                handle.write("x")
            atomic = atomic_write_text(str(tmp_path / "atomic.txt"), "x")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(os.stat(atomic).st_mode) == 0o644
        assert os.stat(atomic).st_mode == os.stat(plain).st_mode

    def test_fsync_false_still_atomic(self, tmp_path):
        path = str(tmp_path / "fast.txt")
        atomic_write_text(path, "quick", fsync=False)
        with open(path) as handle:
            assert handle.read() == "quick"


class TestAtomicWriteJson:
    def test_bytes_match_plain_json_dumps(self, tmp_path):
        # Byte-level determinism checks diff these files directly, so
        # the atomic writer must not change the serialization.
        payload = {"schema": 1, "values": [1.5, 2.25], "label": "s1"}
        path = str(tmp_path / "payload.json")
        atomic_write_json(path, payload)
        with open(path) as handle:
            assert handle.read() == json.dumps(payload)

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "payload.json")
        atomic_write_json(path, {"a": [1, 2, 3]})
        assert read_json_or_default(path) == {"a": [1, 2, 3]}


class TestReadJsonOrDefault:
    def test_missing_file_yields_default(self, tmp_path):
        assert read_json_or_default(str(tmp_path / "gone.json")) is None
        assert (
            read_json_or_default(str(tmp_path / "gone.json"), default={})
            == {}
        )

    def test_corrupt_file_raises_repro_io_error(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"schema": 1, "sessions": {"sess')
        with pytest.raises(ReproIOError, match="torn"):
            read_json_or_default(str(path))

    def test_corrupt_file_salvaged_to_default(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text("{not json")
        assert (
            read_json_or_default(str(path), default="fallback", salvage=True)
            == "fallback"
        )

    def test_valid_file_ignores_default(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text('{"x": 1}')
        assert read_json_or_default(str(path), default=None) == {"x": 1}


class TestResultsDirectoryCrashSafety:
    def test_save_campaign_dict_is_atomic_and_byte_stable(self, tmp_path):
        results = ResultsDirectory(str(tmp_path / "run"))
        data = {"schema": 1, "sram_bits": 42, "sessions": {}}
        path = results.save_campaign_dict(data)
        with open(path) as handle:
            assert handle.read() == json.dumps(data)

    def test_journal_path_and_has_journal(self, tmp_path):
        results = ResultsDirectory(str(tmp_path / "run"))
        assert not results.has_journal()
        path = results.journal_path(ensure_root=True)
        with open(path, "w") as handle:
            handle.write("{}\n")
        assert results.has_journal()
        assert os.path.basename(results.failures_path()) == "failures.json"
