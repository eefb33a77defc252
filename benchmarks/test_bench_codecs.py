"""Bench: vectorized codec decode vs the scalar reference.

The explorer sweep's hot path is ``classify_batch`` -- every cell
pushes thousands of strike words through encode/corrupt/decode -- so
the batched path (packed uint64 H matrices, whole-batch popcounts,
searchsorted syndrome tables) must actually buy its complexity: these
benches hold it to >= 3x the scalar reference loop, far below what it
measures in practice, and check the two paths agree word-for-word on
the bench batch (the full agreement contract lives in the
``codec_scalar_vs_vectorized`` differential pairing).

Each cell also builds one flip mask per struck word.  The ``run_masks``
kernel builds a cell's worth of contiguous runs limb by limb for the
whole batch; the bench holds it to >= 10x the python-int path it replaced
(one ``((1 << length) - 1) << start`` per run, then ``pack_masks``)
and checks the two give identical limbs.  The absolute trajectory
across PRs is tracked by ``benchmarks/record.py`` into
``BENCH_codecs.json``.
"""

import time

import numpy as np
import pytest

from repro.codecs import (
    STATUS_OF_CODE,
    get_codec,
    list_codecs,
    pack_masks,
    run_masks,
)
from repro.codecs.vector import limbs_for

#: Words per classify batch; enough that per-word cost dominates.
BATCH = 4096

#: Floor on the vectorized-over-scalar throughput ratio.
MIN_SPEEDUP_X = 3.0

#: Registered codecs with a real (non-fallback) vectorized decoder.
VECTORIZED = ("parity", "secded", "dected", "sec-daec", "bch-t2")

#: Runs per mask-build batch: about one explorer cell's struck words.
RUNS = 20_000

#: Floor on the run-kernel-over-python-ints mask-build ratio.
MIN_MASK_SPEEDUP_X = 10.0

#: Limb widths the registered codecs pack into.
LIMB_WIDTHS = tuple(
    sorted({limbs_for(get_codec(name).codec.word_bits) for name in list_codecs()})
)


def codec_batch(name, count=BATCH, seed=2023):
    """A deterministic (entry, data, flip masks, flip limbs) batch."""
    entry = get_codec(name)
    scalar = entry.codec
    rng = np.random.default_rng(seed)
    high = rng.integers(0, 1 << 32, size=count, dtype=np.uint64)
    low = rng.integers(0, 1 << 32, size=count, dtype=np.uint64)
    data_mask = np.uint64((1 << min(scalar.data_bits, 64)) - 1)
    data = ((high << np.uint64(32)) | low) & data_mask
    weights = rng.integers(0, 4, size=count)
    masks = []
    for i in range(count):
        mask = 0
        for bit in rng.choice(
            scalar.word_bits, size=int(weights[i]), replace=False
        ):
            mask |= 1 << int(bit)
        masks.append(mask)
    flips = pack_masks(masks, entry.vectorized.limbs)
    return entry, data, masks, flips


def scalar_classify(entry, data, masks):
    """The reference loop: one scalar oracle classification per word."""
    return [
        entry.codec.classify(int(word), mask)
        for word, mask in zip(data, masks)
    ]


@pytest.mark.parametrize("name", VECTORIZED)
def test_bench_classify_batch(benchmark, name):
    """classify_batch beats the scalar loop 3x and agrees with it."""
    entry, data, masks, flips = codec_batch(name)
    vectorized = entry.vectorized

    status, out = benchmark(lambda: vectorized.classify_batch(data, flips))

    started = time.perf_counter()
    reference = scalar_classify(entry, data, masks)
    scalar_s = time.perf_counter() - started

    for i, result in enumerate(reference):
        assert STATUS_OF_CODE[int(status[i])] is result.status, (
            f"{name}: word {i} diverges"
        )
        assert int(out[i]) == result.data

    vectorized_s = benchmark.stats.stats.mean
    speedup = scalar_s / vectorized_s
    print(
        f"\n{name}: scalar {scalar_s * 1e3:.1f} ms, "
        f"vectorized {vectorized_s * 1e3:.2f} ms, {speedup:.0f}x"
    )
    assert speedup >= MIN_SPEEDUP_X


def run_batch(limbs, count=RUNS, seed=2023):
    """Deterministic MBU-sized (starts, lengths) runs over *limbs* limbs."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 9, size=count)
    starts = rng.integers(0, 64 * limbs - lengths + 1)
    return starts, lengths


def python_masks(starts, lengths, limbs):
    """The path the kernel replaced: a python int per run, then packing."""
    masks = [
        ((1 << int(length)) - 1) << int(start)
        for length, start in zip(lengths, starts)
    ]
    return pack_masks(masks, limbs)


@pytest.mark.parametrize("limbs", LIMB_WIDTHS)
def test_bench_run_masks(benchmark, limbs):
    """run_masks beats python ints + pack_masks 10x with identical limbs."""
    starts, lengths = run_batch(limbs)

    flips = benchmark(lambda: run_masks(starts, lengths, limbs))

    started = time.perf_counter()
    reference = python_masks(starts, lengths, limbs)
    python_s = time.perf_counter() - started

    assert np.array_equal(flips, reference)
    kernel_s = benchmark.stats.stats.mean
    speedup = python_s / kernel_s
    print(
        f"\n{limbs} limb(s): python ints {python_s * 1e3:.1f} ms, "
        f"run_masks {kernel_s * 1e3:.2f} ms, {speedup:.0f}x"
    )
    assert speedup >= MIN_MASK_SPEEDUP_X
