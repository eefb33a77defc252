"""Bench: Fig. 11 -- FIT per failure category and voltage (2.4 GHz)."""


def test_bench_fig11(benchmark, experiment, conformance):
    fit = benchmark(experiment, "fig11").series["fit"]

    print("\nFig. 11: FIT per category (980/930/920 mV)")
    for mv, row in sorted(fit.items(), reverse=True):
        cats = ", ".join(
            f"{k} {v:6.2f}" for k, v in row.items() if k != "Total"
        )
        print(f"  {mv} mV: {cats}, total {row['Total']:.2f}")

    # Total FIT per voltage, the Vmin SDC FIT, and the headline SDC /
    # total multipliers gate against the golden file (fig11.json).
    conformance("fig11")

    # SDC FIT rises monotonically and explodes at Vmin.
    sdc = [fit[mv]["SDC"] for mv in (980, 930, 920)]
    assert sdc[0] < sdc[1] < sdc[2]

    # Crash FITs do not grow the way SDCs do (paper: they shrink).
    assert fit[920]["SysCrash"] < fit[980]["SysCrash"] * 1.5
