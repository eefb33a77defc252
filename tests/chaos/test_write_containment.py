"""Every whole-file write in ``repro`` goes through ``repro.io.atomic``.

A plain ``open(path, "w")`` leaves a torn artifact when a kill lands
mid-write, and a hand-rolled temp-then-rename drifts from the one
writer's rules (fsync, directory fsync, umask mode, no temp litter).
This test walks the source tree and fails on a write-mode ``open(``, an
``os.fsync(`` or a ``tempfile.mkstemp`` anywhere but the modules that
own a durable write path of their own.
"""

import ast
import os

import repro

SRC_ROOT = os.path.dirname(repro.__file__)

#: Modules allowed to write files directly, each for a stated reason.
ALLOWED = {
    os.path.join("io", "atomic.py"): "the atomic writer itself",
    os.path.join("resilient", "journal.py"): (
        "the append-only event journal appends rather than replaces"
    ),
    os.path.join("scheduler", "store.py"): (
        "the raw write/link/replace primitives FaultyStore intercepts"
    ),
    os.path.join("scheduler", "fencing.py"): (
        "an epoch claim must fail if its file exists (exclusive os.link)"
    ),
}

#: Characters that make an ``open`` mode write to the file.
WRITE_MODE_CHARS = set("wax+")


def _python_sources():
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _open_mode(call: ast.Call):
    """The mode argument of an ``open(...)`` call (None when absent)."""
    if len(call.args) >= 2:
        return call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


def _direct_writes(tree: ast.AST):
    """(line, what) for every direct file write in one module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _open_mode(node)
            if mode is None:
                continue
            if not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            ):
                yield node.lineno, "open() with a computed mode"
            elif WRITE_MODE_CHARS & set(mode.value):
                yield node.lineno, f"open(..., {mode.value!r})"
        elif isinstance(func, ast.Attribute) and func.attr in (
            "fsync",
            "mkstemp",
        ):
            yield node.lineno, f"{ast.unparse(func)}()"


def test_allowed_writers_exist():
    # A renamed or deleted writer must not leave a stale exemption.
    for relpath in ALLOWED:
        assert os.path.isfile(os.path.join(SRC_ROOT, relpath)), relpath


def test_whole_file_writes_go_through_the_atomic_writer():
    offenders = []
    for path in _python_sources():
        relpath = os.path.relpath(path, SRC_ROOT)
        if relpath in ALLOWED:
            continue
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=path)
        for lineno, what in sorted(_direct_writes(tree)):
            offenders.append(f"{relpath}:{lineno}: {what}")
    assert not offenders, (
        "direct file writes outside the durable-write modules:\n  "
        + "\n  ".join(offenders)
        + "\nwrite whole files with repro.io.atomic.atomic_write_text "
        "(or atomic_write_json) so a kill mid-write never leaves a "
        "torn artifact"
    )
