"""Bench: Fig. 9 -- power vs upsets/minute over the four settings."""

import pytest

from repro.core.tradeoff import build_tradeoff_series


def test_bench_fig9(benchmark, experiment, conformance):
    series = benchmark(build_tradeoff_series)

    print("\nFig. 9: power (W) and upsets/min per setting")
    for p in series.points:
        print(
            f"  {p.point.label:>12}: {p.power_watts:6.2f} W, "
            f"{p.upsets_per_min:.3f} upsets/min"
        )

    # The deterministic model series tracks the paper's bars and line
    # at the tolerances fig9.json declares.
    conformance("fig9")

    # The measured campaign rates agree with the model line (statistical
    # consistency of the Monte-Carlo sessions with the deterministic
    # figure).
    measured = experiment("table2").series["upset_rates"]
    for ours, model_point in zip(measured, series.points):
        assert ours == pytest.approx(model_point.upsets_per_min, rel=0.15)

    # Observation #5: power strictly falls, susceptibility strictly rises.
    watts = [p.power_watts for p in series.points]
    rates = [p.upsets_per_min for p in series.points]
    assert watts == sorted(watts, reverse=True)
    assert rates == sorted(rates)
