"""The program names the end-to-end benchmark (``perfbench/``) relies on.

perfbench drives the program from outside: ``tracer.py`` wraps a fixed
list of functions and methods by name, and ``checks.py`` judges every
output with the program's own verifiers.  Renaming any of them leaves
the rest of this suite green and breaks the benchmark, so both are
pinned here: every tracer target resolves the way ``install()`` looks it
up, and every check runs on a tiny ``run`` and a one-cell ``explore``.
"""

import importlib.util
import os

import pytest

from repro.cli import main

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def _load(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
checks = _load("checks")


@pytest.mark.parametrize("target", [target for _, target, _ in tracer.TARGETS])
def test_tracer_target_resolves(target):
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in attr:
        # install() wraps the method found in the class's own __dict__.
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name))[method])
    else:
        assert callable(getattr(module, attr))


def test_campaign_checks_run_on_a_tiny_run(tmp_path):
    outdir = str(tmp_path / "run")
    assert main(["run", outdir, "--seed", "3", "--time-scale", "0.002"]) == 0
    campaign = checks.load_json(os.path.join(outdir, "campaign.json"))

    ok, failed = checks.postjob_ok(campaign)
    assert isinstance(ok, bool)
    assert all(isinstance(name, str) for name in failed)
    runs = checks.benchmark_runs(campaign)
    assert isinstance(runs, int) and runs > 0
    assert checks.beam_minutes(campaign) > 0.0


def test_sweep_checks_run_on_a_one_cell_explore(tmp_path):
    outdir = str(tmp_path / "explore")
    argv = [
        "explore", outdir, "--codecs", "secded", "--points", "980:950",
        "--workloads", "CG", "--strikes", "200",
    ]
    assert main(argv) == 0
    pareto = checks.load_json(os.path.join(outdir, "pareto.json"))

    assert len(pareto["cells"]) == 1
    assert checks.sweep_beam_minutes(pareto) > 0.0
    assert checks.quarantined([os.path.join(outdir, "scheduler")]) == 0
