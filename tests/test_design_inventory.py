"""DESIGN.md §2 names every module under ``src/repro``, and no other."""

import glob
import itertools
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")


def _inventory():
    """Module paths (relative to ``src/repro``) the inventory names.

    A directory line stands for its package's ``__init__.py``; the
    files indented under it belong to that package.
    """
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as handle:
        section = handle.read().split("## 2. Package inventory", 1)[1]
    block = section.split("```", 2)[1]
    listed = []
    package = ""
    for line in block.splitlines():
        indent = len(line) - len(line.lstrip())
        names = itertools.takewhile(
            lambda token: token.endswith((".py", "/")), line.split()
        )
        for name in names:
            if indent == 0:
                listed.append("__init__.py")
            elif name.endswith("/"):
                package = name
                listed.append(name + "__init__.py")
            else:
                listed.append((package if indent > 2 else "") + name)
    return listed


def test_inventory_matches_the_tree():
    paths = glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)
    on_disk = sorted(
        os.path.relpath(path, PACKAGE).replace(os.sep, "/") for path in paths
    )
    listed = _inventory()
    assert sorted(listed) == on_disk, (
        f"missing from DESIGN.md: {sorted(set(on_disk) - set(listed))}; "
        f"not in src/repro: {sorted(set(listed) - set(on_disk))}"
    )
