"""Keep only what something runs: no public code that only tests call.

A public (no leading underscore) function, method or class defined
under ``src/repro`` must be named somewhere outside the tests: in
``src/`` beyond its own definition and the package ``__init__.py``
re-exports, or in ``examples/``, ``benchmarks/`` or ``perfbench/``.
Code that only its own tests call is deleted together with those tests.
The scan is by name, so it cannot see a method that shares its name
with a live one; it only ever errs towards keeping code.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Public names the tests need although nothing else names them.
ALLOWED = {
    "unregister_codec": "inverse of the public codec plugin registry",
    "unregister_node": "inverse of the public tech-node plugin registry",
}


def _definitions():
    """``(name, where, defining line)`` of every public def/class."""
    found = []

    def visit(body, path, lines):
        for node in body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not node.name.startswith("_"):
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    found.append((node.name, where, lines[node.lineno - 1]))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, path, lines)

    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        visit(ast.parse(source).body, path, source.splitlines())
    return found


def _names():
    """How often each identifier occurs in code that counts as running."""
    counts = Counter()
    for folder in ("src", "examples", "benchmarks", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if path.name == "__init__.py" and SRC in path.parents:
                continue  # a re-export is not a use
            counts.update(re.findall(r"\w+", path.read_text()))
    return counts


def _named_elsewhere(name, definition, counts):
    return counts[name] > re.findall(r"\w+", definition).count(name)


def test_every_public_definition_is_named_outside_the_tests():
    counts = _names()
    test_only = sorted(
        f"{name} ({where})"
        for name, where, definition in _definitions()
        if name not in ALLOWED
        and not _named_elsewhere(name, definition, counts)
    )
    assert not test_only, (
        "only tests name these; delete them with their tests, or add "
        f"each to ALLOWED with a reason: {test_only}"
    )


def test_every_allowed_name_is_still_defined_and_test_only():
    counts = _names()
    defined = {name: line for name, _, line in _definitions()}
    for name in ALLOWED:
        assert name in defined, f"{name} is allowed but no longer defined"
        assert not _named_elsewhere(name, defined[name], counts), (
            f"{name} is named outside the tests now; drop it from ALLOWED"
        )
