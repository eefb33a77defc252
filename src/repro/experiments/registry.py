"""Experiment registry and the ``repro-experiment`` console script."""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Callable, Dict, Optional

from ..engine.executor import worker_count
from ..errors import ConfigurationError, ReproError
from ..telemetry import Telemetry, console_summary
from . import (
    ablations,
    explorer,
    ext_masking,
    ext_viruses,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    table2,
    table3,
)
from .config import DEFAULT_SEED, DEFAULT_TIME_SCALE, ExperimentResult

#: Every reproducible artifact, by id.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table2": table2.run,
    "table3": table3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
    "fig13": fig13.run,
    "ablation-interleave": ablations.run_interleave,
    "ablation-ecc": ablations.run_ecc,
    "ablation-slope": ablations.run_slope,
    "ablation-scrub": ablations.run_scrub,
    "ablation-checkpoint": ablations.run_checkpoint,
    "ext-masking": ext_masking.run,
    "ext-viruses": ext_viruses.run,
    "explorer": explorer.run,
}


def run_experiment(
    experiment_id: str,
    seed: int = DEFAULT_SEED,
    time_scale: float = DEFAULT_TIME_SCALE,
    workers: int = 0,
    telemetry: Optional[Telemetry] = None,
) -> ExperimentResult:
    """Run one experiment by id.

    ``workers`` reaches the drivers whose campaigns fan out through the
    :mod:`repro.engine` executors; drivers without a ``workers``
    parameter (analytic figures, ablations) simply ignore it.
    ``telemetry`` wraps the driver in an ``experiment`` span and counts
    ``experiments.run`` per artifact regenerated.
    """
    if experiment_id not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        )
    runner = EXPERIMENTS[experiment_id]
    kwargs = {"seed": seed, "time_scale": time_scale}
    if "workers" in inspect.signature(runner).parameters:
        kwargs["workers"] = workers
    if telemetry is None:
        return runner(**kwargs)
    with telemetry.span("experiment", id=experiment_id):
        result = runner(**kwargs)
    telemetry.count("experiments.run", id=experiment_id)
    return result


def main(argv=None) -> int:
    """CLI: ``repro-experiment fig11 [--seed N] [--time-scale X] [--csv]``.

    An artifact whose driver cannot measure (a library error, e.g. a
    session that observed no failures at a tiny time scale) prints one
    ``error: <id>: <message>`` line to stderr; the remaining artifacts
    still run, and the exit code is 1 if any failed.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate a table or figure of the MICRO'23 paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="artifact id, or 'all'",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--time-scale",
        type=float,
        default=DEFAULT_TIME_SCALE,
        help="fraction of each session's beam time to fly (default 0.2)",
    )
    parser.add_argument(
        "--csv", action="store_true", help="emit CSV instead of ASCII tables"
    )
    parser.add_argument(
        "--workers",
        type=worker_count,
        default=0,
        help="campaign sessions to fly concurrently (0/1 = serial)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="time each experiment and print a telemetry summary",
    )
    args = parser.parse_args(argv)

    telemetry = Telemetry() if args.telemetry else None
    ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failed = 0
    for experiment_id in ids:
        try:
            result = run_experiment(
                experiment_id,
                seed=args.seed,
                time_scale=args.time_scale,
                workers=args.workers,
                telemetry=telemetry,
            )
        except ReproError as exc:
            print(f"error: {experiment_id}: {exc}", file=sys.stderr)
            failed += 1
            continue
        print(result.table.to_csv() if args.csv else result.render())
        print()
    if telemetry is not None:
        print(console_summary(metrics=telemetry.metrics))
        print()
        print(telemetry.tracer.render())
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
