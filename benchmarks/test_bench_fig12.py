"""Bench: Fig. 12 -- SDC FIT with vs without HW notification (2.4 GHz)."""


def test_bench_fig12(benchmark, experiment, conformance):
    split = benchmark(experiment, "fig12").series["sdc_fit"]

    print("\nFig. 12: SDC FIT w/o vs w/ notification (2.4 GHz)")
    for mv, row in sorted(split.items(), reverse=True):
        print(f"  {mv} mV: w/o {row['without']:6.2f}, w/ {row['with']:5.2f}")

    # The Vmin un-notified SDC FIT -- the figure's headline bar --
    # gates against the golden file (fig12.json).
    conformance("fig12")

    # Observation #9: un-notified SDCs dominate at every voltage.
    for mv, row in split.items():
        assert row["without"] > row["with"]

    # Both series rise toward Vmin; the un-notified one explodes.
    without = [split[mv]["without"] for mv in (980, 930, 920)]
    assert without[0] < without[1] < without[2]

    # The notified component stays small in absolute terms (rare
    # triple-bit-aliasing / concurrent-event cases).
    for mv in (980, 930, 920):
        assert split[mv]["with"] < 6.0
