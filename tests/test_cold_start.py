"""The verbs start without ``scipy.stats``.

Every ``repro-campaign`` job pays for ``import repro.cli`` before its
first strike, and ``scipy.stats`` alone used to be most of it: it loads
nine more public scipy subpackages.  The interval and gate quantiles
come from ``scipy.special`` instead (``tests/core/test_confidence.py``
and the gate and guardband tests hold them equal to ``scipy.stats``),
and this test keeps the import of the CLI, and a ``run`` and an
``explore`` driven through it, to what a bare ``import scipy.special``
loads.  That set is measured, not assumed: scipy 1.17 loads no other
public subpackage for it, while older releases load ``scipy.linalg``.
"""

import json
import os
import pkgutil
import subprocess
import sys

import scipy

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: scipy's public subpackages (``scipy.stats``, ``scipy.linalg``, ...).
PUBLIC_SUBPACKAGES = frozenset(
    module.name
    for module in pkgutil.iter_modules(scipy.__path__)
    if module.ispkg and not module.name.startswith("_")
)

#: Prints, as the last line of stdout, the scipy modules loaded so far.
REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

#: Runs in a fresh interpreter: the scipy modules loaded by the import
#: of ``repro.cli``, then after a ``run`` and an ``explore`` through
#: ``repro.cli.main``, as the last line of stdout.
PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import repro.cli
imported = scipy_modules()
out = sys.argv[1]
codes = [
    repro.cli.main(["run", out + "/run", "--seed", "3", "--time-scale", "0.01"]),
    repro.cli.main([
        "explore", out + "/explore", "--codecs", "parity,secded",
        "--points", "980:950,790:950", "--workloads", "CG",
        "--strikes", "64", "--seed", "7",
    ]),
]
print(json.dumps({"import": imported, "verbs": scipy_modules(), "codes": codes}))
"""


def _fresh(code, *argv):
    """Last stdout line of *code* run in a new interpreter, as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _subpackages(modules):
    return {
        name.split(".")[1]
        for name in modules
        if name.count(".") and name.split(".")[1] in PUBLIC_SUBPACKAGES
    }


def test_cli_and_its_verbs_load_only_what_scipy_special_loads(tmp_path):
    allowed = _subpackages(_fresh("import scipy.special\n" + REPORT))
    assert "special" in allowed and "stats" not in allowed
    loaded = _fresh(PROBE, str(tmp_path))
    assert loaded["codes"] == [0, 0]
    for stage in ("import", "verbs"):
        assert _subpackages(loaded[stage]) <= allowed, stage
        assert not [m for m in loaded[stage] if m.startswith("scipy.stats")]
