"""Bench: regenerate Table 2 and check it against the golden registry."""


def test_bench_table2(benchmark, experiment, conformance):
    result = benchmark(experiment, "table2")
    print("\n" + result.render())

    # Fluences, counts, rates and SER all gate against the paper's rows
    # through the golden file (table2.json): fluences deterministically
    # at 1%, raw counts through Poisson intervals, rates and FIT/Mbit
    # at the declared relative slack.
    conformance("table2")

    # Upset rates keep the paper's upward trend toward Vmin.
    rates = result.series["upset_rates"]
    assert rates[0] < rates[-1]

    # Session 3 (Vmin) has by far the highest failure rate.
    failure_rates = result.series["failure_rates"]
    assert failure_rates[2] == max(failure_rates)
    assert failure_rates[2] > 3 * failure_rates[0]
