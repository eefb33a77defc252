"""Bench: Fig. 6 -- upsets/minute per cache level at 2.4 GHz."""


def test_bench_fig6(benchmark, experiment, conformance):
    rates = benchmark(experiment, "fig6").series["rates"]

    print("\nFig. 6: upsets/min per level (980/930/920 mV)")
    for key, row in rates.items():
        print(f"  {key[0]:>9}/{key[1]}: " + "  ".join(f"{r:.3f}" for r in row))

    # Every (level, severity) count lands inside the Poisson band
    # around the paper's bars (golden file fig6.json).
    conformance("fig6")

    # Observation #2: the larger the structure, the higher the rate,
    # at every voltage.
    for i in range(3):
        assert (
            rates[("TLBs", "CE")][i]
            < rates[("L2 Cache", "CE")][i]
            < rates[("L3 Cache", "CE")][i]
        )
        assert rates[("L1 Cache", "CE")][i] < rates[("L2 Cache", "CE")][i]

    # The big arrays' rates rise monotonically with undervolt.
    for key in (("L2 Cache", "CE"), ("L3 Cache", "CE")):
        assert rates[key][0] < rates[key][2]

    # Uncorrected errors exist only in the L3, at a few percent of its
    # corrected rate (SECDED + no interleaving; Observation #3).
    for i in range(3):
        ue = rates[("L3 Cache", "UE")][i]
        ce = rates[("L3 Cache", "CE")][i]
        assert 0.0 < ue < 0.12 * ce
