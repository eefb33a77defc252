"""Bench: Fig. 8 -- failure-category percentages per voltage (2.4 GHz)."""


def test_bench_fig8(benchmark, experiment, conformance):
    mixes = benchmark(experiment, "fig8").series["mixes_pct"]

    print("\nFig. 8: failure mix per voltage (%)")
    for mv, mix in sorted(mixes.items(), reverse=True):
        print(
            f"  {mv} mV: "
            + ", ".join(f"{k} {v:5.1f}%" for k, v in mix.items())
        )

    # Each panel's category shares sit inside the Wilson intervals
    # around the paper's percentages (golden file fig8.json).
    conformance("fig8")

    # SDC share rises monotonically as voltage drops; crash shares fall.
    assert mixes[980]["SDC"] < mixes[930]["SDC"] < mixes[920]["SDC"]
    assert mixes[920]["SysCrash"] < mixes[980]["SysCrash"]
    assert mixes[920]["AppCrash"] < mixes[980]["AppCrash"]

    # At Vmin, SDCs dominate overwhelmingly (paper: 92.2%).
    assert mixes[920]["SDC"] > 80.0

    # At nominal, crashes together dominate (paper: 69.5%).
    assert mixes[980]["AppCrash"] + mixes[980]["SysCrash"] > 55.0

    # Observation #4: the SDC share at Vmin is ~3x the nominal share.
    ratio = mixes[920]["SDC"] / mixes[980]["SDC"]
    assert 2.0 < ratio < 4.5
