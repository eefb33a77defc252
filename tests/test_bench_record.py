"""``benchmarks/record.py`` stamps the revision a record was taken on.

A record taken on an uncommitted change must not carry the bare
revision of the commit it started from, so a dirty tree is marked.
Each case builds its own throwaway git repository.
"""

import importlib.util
import os
import subprocess

import pytest

RECORD = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "record.py",
)


def _load_record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record = _load_record()


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
         "-c", "commit.gpgsign=false", "-c", "tag.gpgsign=false", *args],
        cwd=repo,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    path = tmp_path / "repo"
    path.mkdir()
    _git(path, "init", "-q")
    (path / "kept.txt").write_text("one\n")
    _git(path, "add", "kept.txt")
    _git(path, "commit", "-q", "-m", "one")
    monkeypatch.setattr(record, "REPO_ROOT", str(path))
    return path


def test_a_clean_tree_is_its_short_revision(repo):
    head = _git(repo, "rev-parse", "--short=7", "HEAD")
    assert record._git_revision() == head


def test_an_edited_tree_is_marked_dirty(repo):
    head = _git(repo, "rev-parse", "--short=7", "HEAD")
    (repo / "kept.txt").write_text("two\n")
    assert record._git_revision() == f"{head}-dirty"
    _git(repo, "add", "kept.txt")
    assert record._git_revision() == f"{head}-dirty"


def test_a_tag_does_not_replace_the_revision(repo):
    head = _git(repo, "rev-parse", "--short=7", "HEAD")
    _git(repo, "tag", "-a", "v1", "-m", "v1")
    assert record._git_revision() == head


def test_outside_a_repository_it_is_unknown(tmp_path, monkeypatch):
    monkeypatch.setattr(record, "REPO_ROOT", str(tmp_path))
    assert record._git_revision() == "unknown"
