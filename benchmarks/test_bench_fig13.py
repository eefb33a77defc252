"""Bench: Fig. 13 -- SDC FIT notification split at 790 mV / 900 MHz."""


def test_bench_fig13(benchmark, experiment, conformance):
    series = benchmark(experiment, "fig13").series
    split = series["sdc_fit"]

    print(
        f"\nFig. 13: SDC FIT at 790 mV @ 900 MHz: "
        f"w/o {split['without']:.2f}, w/ {split['with']:.2f}"
    )

    # The notified share of the session's SDCs sits inside the Wilson
    # interval around the paper's split (golden file fig13.json).
    conformance("fig13")

    # The same behaviour as Fig. 12 persists at low clock frequency:
    # the un-notified population dominates.  Session 4 is only 165
    # minutes (the paper's own statistical caveat), so compare against
    # the paper's 4.39 FIT via the confidence interval rather than the
    # point estimate.
    assert split["without"] >= split["with"]
    assert series["without_upper"] > 4.39 * 0.5
    assert split["without"] < 20.0
