"""Experiment drivers: one module per table and figure of the paper.

Every driver exposes ``run(seed=..., time_scale=...)`` returning an
:class:`~repro.experiments.config.ExperimentResult` whose ``table`` is
the regenerated artifact and whose ``series`` dict carries the raw
numbers: the conformance gates (:mod:`repro.validate.conformance`) and
the benches check those, so each artifact has one derivation.
``repro-experiment <id>`` (the console script in
:mod:`repro.experiments.registry`) prints any of them.
"""

from .config import ExperimentResult, shared_campaign
from .registry import EXPERIMENTS, run_experiment, main

__all__ = [
    "ExperimentResult",
    "shared_campaign",
    "EXPERIMENTS",
    "run_experiment",
    "main",
]
