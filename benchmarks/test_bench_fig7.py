"""Bench: Fig. 7 -- per-level upsets/minute at 790 mV / 900 MHz."""


def test_bench_fig7(benchmark, experiment, conformance):
    rates = benchmark(experiment, "fig7").series["rates"]
    print("\nFig. 7: upsets/min per level at 790 mV @ 900 MHz")
    for key, rate in rates.items():
        print(f"  {key[0]:>9}/{key[1]}: {rate:.3f}")

    # Per-level counts gate against the paper's bars through the
    # Poisson oracles in fig7.json (deep PMD undervolt lifting L1/L2,
    # the 2.7x / +50% calls of Section 4.3 included).
    conformance("fig7")

    # The L3 (SoC domain at nominal) does NOT rise above its Fig. 6
    # ceiling -- the voltage-domain split of Section 4.3.
    assert rates[("L3 Cache", "CE")] < 0.95

    # Ordering still holds.
    assert (
        rates[("TLBs", "CE")]
        < rates[("L1 Cache", "CE")]
        < rates[("L2 Cache", "CE")]
        < rates[("L3 Cache", "CE")]
    )
