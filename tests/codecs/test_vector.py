"""Vectorized decode path: packing, popcount, and scalar agreement.

The batched decoders are the hot path; the scalar codecs are the
semantic reference.  Every registered codec gets a randomized
differential check here (exact status + data equality), on top of the
``codec_scalar_vs_vectorized`` pairing in ``repro.validate``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs import get_codec, list_codecs, pack_masks, run_masks
from repro.codecs.vector import (
    CLEAN,
    CODE_OF_STATUS,
    CORRECTED,
    DUE,
    SILENT,
    STATUS_OF_CODE,
    VectorizedParity,
    limbs_for,
    popcount64,
)
from repro.errors import CodecError, ProtectionError
from repro.sram.protection import DecodeStatus, ParityCodec


class TestHelpers:
    def test_status_code_tables_are_inverse(self):
        assert (CLEAN, CORRECTED, DUE, SILENT) == (0, 1, 2, 3)
        for code, status in enumerate(STATUS_OF_CODE):
            assert CODE_OF_STATUS[status] == code
        assert STATUS_OF_CODE[DUE] is DecodeStatus.DETECTED_UNCORRECTABLE

    def test_limbs_for(self):
        assert limbs_for(1) == 1
        assert limbs_for(64) == 1
        assert limbs_for(65) == 2
        assert limbs_for(128) == 2

    def test_popcount64_matches_python(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 1 << 63, size=256, dtype=np.uint64)
        values[:3] = (0, 1, 0xFFFFFFFFFFFFFFFF)
        expected = [bin(int(v)).count("1") for v in values]
        assert popcount64(values).tolist() == expected

    def test_pack_masks_splits_limbs(self):
        mask = (0xABCD << 64) | 0x1234
        packed = pack_masks([mask, 0], 2)
        assert packed.shape == (2, 2)
        assert int(packed[0, 0]) == 0x1234
        assert int(packed[0, 1]) == 0xABCD
        assert int(packed[1, 0]) == 0 and int(packed[1, 1]) == 0

    def test_pack_masks_keeps_the_full_width(self):
        packed = pack_masks([(1 << 128) - 1], 2)
        assert packed.tolist() == [[0xFFFFFFFFFFFFFFFF] * 2]

    @pytest.mark.parametrize(
        "mask, limbs",
        [(1 << 128, 2), (1 << 64, 1), (-1, 2), (-(1 << 70), 2)],
    )
    def test_pack_masks_refuses_what_it_cannot_hold(self, mask, limbs):
        # Truncating 1 << 128 to zero (or packing -1 as all ones) would
        # hand the batch a different flip than the caller asked for.
        with pytest.raises(CodecError, match="does not fit"):
            pack_masks([0, mask], limbs)


def python_runs(starts, lengths):
    """The python-int reference for a batch of contiguous runs."""
    return [
        ((1 << int(length)) - 1) << int(start)
        for start, length in zip(starts, lengths)
    ]


class TestRunMasks:
    """The explorer's run kernel == pack_masks of the python-int runs."""

    @pytest.mark.parametrize("name", sorted(list_codecs()))
    def test_random_runs_at_every_registered_width(self, name):
        word_bits = get_codec(name).codec.word_bits
        limbs = limbs_for(word_bits)
        rng = np.random.default_rng(word_bits)
        lengths = rng.integers(0, word_bits + 1, size=2000)
        starts = rng.integers(0, word_bits - lengths + 1)
        assert np.array_equal(
            run_masks(starts, lengths, limbs),
            pack_masks(python_runs(starts, lengths), limbs),
        )

    @pytest.mark.parametrize(
        "start, length, limbs",
        [
            (60, 8, 2),  # straddles bits 63/64
            (63, 2, 2),  # the smallest straddle
            (56, 8, 2),  # ends exactly at bit 64
            (64, 1, 2),  # the first bit of the second limb
            (127, 1, 2),  # the top bit
            (0, 1, 1),  # start == 0
            (0, 64, 1),  # a full single limb
            (0, 64, 2),  # a full low limb
            (64, 64, 2),  # a full high limb
            (0, 128, 2),  # every bit
            (1, 126, 2),  # every bit but the two ends
            (0, 0, 1),  # zero-length runs pack to 0 ...
            (37, 0, 2),
            (64, 0, 2),
            (128, 0, 2),  # ... even at the very end
        ],
    )
    def test_edge_runs(self, start, length, limbs):
        assert (
            run_masks([start], [length], limbs).tolist()
            == pack_masks(python_runs([start], [length]), limbs).tolist()
        )

    def test_empty_batch(self):
        assert run_masks([], [], 2).shape == (0, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_pack_masks_property(self, data):
        limbs = data.draw(st.integers(min_value=1, max_value=3), label="limbs")
        width = 64 * limbs
        runs = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=width).flatmap(
                    lambda start: st.tuples(
                        st.just(start),
                        st.integers(min_value=0, max_value=width - start),
                    )
                ),
                max_size=24,
            ),
            label="runs",
        )
        starts = [start for start, _ in runs]
        lengths = [length for _, length in runs]
        assert (
            run_masks(starts, lengths, limbs).tolist()
            == pack_masks(python_runs(starts, lengths), limbs).tolist()
        )

    @pytest.mark.parametrize(
        "starts, lengths",
        [
            ([3, -1], [1, 1]),  # start < 0
            ([3, 0], [1, -1]),  # length < 0
            ([3, 120], [1, 9]),  # end past 64 * limbs
            ([128], [1]),
        ],
    )
    def test_out_of_range_runs_refused(self, starts, lengths):
        with pytest.raises(CodecError, match="bit runs"):
            run_masks(starts, lengths, 2)

    def test_mismatched_shapes_refused(self):
        with pytest.raises(CodecError, match="matching 1-D"):
            run_masks([1, 2], [1], 2)


def _random_cases(entry, count, seed):
    codec = entry.codec
    rng = np.random.default_rng(seed)
    lo = rng.integers(0, 1 << 32, size=count, dtype=np.uint64)
    hi = rng.integers(0, 1 << 32, size=count, dtype=np.uint64)
    mask = (1 << min(codec.data_bits, 64)) - 1
    data = ((hi << np.uint64(32)) | lo) & np.uint64(mask)
    weights = rng.integers(0, 5, size=count)
    masks = []
    for w in weights:
        bits = rng.choice(codec.word_bits, size=int(w), replace=False)
        flip = 0
        for b in bits:
            flip |= 1 << int(b)
        masks.append(flip)
    return data, masks


@pytest.mark.parametrize("name", sorted(list_codecs()))
class TestScalarAgreement:
    def test_classify_batch_matches_scalar(self, name):
        entry = get_codec(name)
        data, masks = _random_cases(entry, 512, seed=2023)
        status, decoded = entry.vectorized.classify_batch(
            data, pack_masks(masks, entry.vectorized.limbs)
        )
        for i, flip in enumerate(masks):
            expected = entry.codec.classify(int(data[i]), flip)
            assert STATUS_OF_CODE[int(status[i])] is expected.status, (
                f"{name}: word {i} flip {flip:#x}"
            )
            assert int(decoded[i]) == expected.data

    def test_encode_batch_matches_scalar(self, name):
        entry = get_codec(name)
        data, _ = _random_cases(entry, 64, seed=11)
        codewords = entry.vectorized.encode_batch(data)
        assert codewords.shape == (64, entry.vectorized.limbs)
        for i in range(64):
            expected = entry.codec.encode(int(data[i]))
            got = 0
            for limb in range(entry.vectorized.limbs):
                got |= int(codewords[i, limb]) << (64 * limb)
            assert got == expected


class TestFlipShapes:
    def test_flat_flips_accepted_for_single_limb(self):
        entry = get_codec("parity")
        data = np.array([5, 9], dtype=np.uint64)
        flips = np.array([0b11, 0], dtype=np.uint64)
        status, _ = entry.vectorized.classify_batch(data, flips)
        assert int(status[0]) == SILENT  # double flip defeats parity
        assert int(status[1]) == CLEAN

    def test_flat_flips_refused_for_multi_limb(self):
        entry = get_codec("secded")
        assert entry.vectorized.limbs == 2
        data = np.array([5], dtype=np.uint64)
        with pytest.raises(CodecError, match="pack_masks"):
            entry.vectorized.classify_batch(
                data, np.array([1], dtype=np.uint64)
            )


class TestOutOfWordFlips:
    """The batch refuses flips outside the codeword, like the oracle."""

    @pytest.mark.parametrize("name", sorted(list_codecs()))
    def test_bit_past_the_word_refused(self, name):
        entry = get_codec(name)
        word_bits = entry.codec.word_bits
        with pytest.raises(ProtectionError, match="does not fit"):
            entry.codec.classify(5, 1 << word_bits)
        flips = pack_masks([0, 1 << word_bits], entry.vectorized.limbs)
        with pytest.raises(CodecError, match=f"bit {word_bits}"):
            entry.vectorized.classify_batch(
                np.array([5, 5], dtype=np.uint64), flips
            )

    @pytest.mark.parametrize("name", sorted(list_codecs()))
    def test_top_bit_of_the_word_classified(self, name):
        entry = get_codec(name)
        flip = 1 << (entry.codec.word_bits - 1)
        status, out = entry.vectorized.classify_batch(
            np.array([5], dtype=np.uint64),
            pack_masks([flip], entry.vectorized.limbs),
        )
        expected = entry.codec.classify(5, flip)
        assert STATUS_OF_CODE[int(status[0])] is expected.status
        assert int(out[0]) == expected.data

    def test_flat_single_limb_flip_past_the_word_refused(self):
        # Parity's 33-bit word: bit 33 used to come back DUE.
        entry = get_codec("parity")
        with pytest.raises(CodecError, match="bit 33"):
            entry.vectorized.classify_batch(
                np.array([5], dtype=np.uint64),
                np.array([1 << 33], dtype=np.uint64),
            )

    def test_word_filling_its_limbs_needs_no_check(self):
        # A 64-bit parity word fills its limb, so every flip is inside.
        vectorized = VectorizedParity(ParityCodec(63))
        assert vectorized.scalar.word_bits == 64 * vectorized.limbs
        flip = 0xFFFFFFFFFFFFFFFF
        status, out = vectorized.classify_batch(
            np.array([5], dtype=np.uint64), np.array([flip], dtype=np.uint64)
        )
        expected = vectorized.scalar.classify(5, flip)
        assert STATUS_OF_CODE[int(status[0])] is expected.status
        assert int(out[0]) == expected.data
