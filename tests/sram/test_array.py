"""SRAM array: geometry, sparse upset store, access/scrub semantics."""

import numpy as np
import pytest

from repro.errors import GeometryError, InjectionError
from repro.sram.array import ArrayGeometry, SramArray
from repro.sram.mbu import MbuCluster, MbuModel
from repro.sram.protection import DecodeStatus, ParityCodec, SecdedCodec


def make_secded_array(words=64, interleave=1) -> SramArray:
    return SramArray(
        geometry=ArrayGeometry(
            name="test.l3", words=words, data_bits=64, interleave=interleave
        ),
        codec=SecdedCodec(64),
        domain="soc",
    )


def make_parity_array(words=32) -> SramArray:
    return SramArray(
        geometry=ArrayGeometry(
            name="test.l1", words=words, data_bits=32, interleave=4
        ),
        codec=ParityCodec(32),
        domain="pmd",
    )


class TestGeometry:
    def test_from_bytes(self):
        geo = ArrayGeometry.from_bytes("x", 32 * 1024, data_bits=32)
        assert geo.words == 8192
        assert geo.words * geo.data_bits == 32 * 1024 * 8

    def test_from_bytes_rejects_indivisible(self):
        with pytest.raises(GeometryError):
            ArrayGeometry.from_bytes("x", 10, data_bits=64)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(GeometryError):
            ArrayGeometry(name="x", words=0, data_bits=64)
        with pytest.raises(GeometryError):
            ArrayGeometry(name="x", words=4, data_bits=0)
        with pytest.raises(GeometryError):
            ArrayGeometry(name="x", words=4, data_bits=64, interleave=0)

    def test_codec_geometry_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            SramArray(
                geometry=ArrayGeometry(name="x", words=4, data_bits=32),
                codec=SecdedCodec(64),
                domain="pmd",
            )


class TestInjectAndAccess:
    def test_clean_access(self):
        array = make_secded_array()
        result, record = array.access(3, data=0xFEED)
        assert result.status == DecodeStatus.CLEAN
        assert result.data == 0xFEED
        assert record is None

    def test_single_flip_corrected_and_logged(self):
        array = make_secded_array()
        array.inject_bit_flip(5, 10)
        result, record = array.access(5, data=0xABc0ffee)
        assert result.status == DecodeStatus.CORRECTED
        assert result.data == 0xABC0FFEE
        assert record is not None
        assert record.flipped_bits == 1
        assert record.array == "test.l3"

    def test_double_flip_uncorrectable(self):
        array = make_secded_array()
        array.inject_bit_flip(5, 10)
        array.inject_bit_flip(5, 20)
        _, record = array.access(5)
        assert record.status == DecodeStatus.DETECTED_UNCORRECTABLE
        assert record.flipped_bits == 2

    def test_parity_flip_detected(self):
        array = make_parity_array()
        array.inject_bit_flip(2, 7)
        result, record = array.access(2, data=0x1234)
        assert record.status == DecodeStatus.DETECTED_UNCORRECTABLE
        # Write-through: the refetched data is intact.
        assert result.data == 0x1234

    def test_access_clears_flips(self):
        array = make_secded_array()
        array.inject_bit_flip(5, 10)
        _, first = array.access(5)
        assert first is not None
        _, record = array.access(5)
        assert record is None

    def test_double_injection_same_bit_cancels(self):
        array = make_secded_array()
        array.inject_bit_flip(5, 10)
        array.inject_bit_flip(5, 10)
        assert array.access(5)[1] is None
        assert list(array.scrub()) == []

    def test_out_of_range_rejected(self):
        array = make_secded_array(words=8)
        with pytest.raises(InjectionError):
            array.inject_bit_flip(8, 0)
        with pytest.raises(InjectionError):
            array.inject_bit_flip(0, 72)
        with pytest.raises(InjectionError):
            array.access(-1)

    def test_stored_bits_includes_check_bits(self):
        array = make_secded_array(words=64)
        assert array.stored_bits == 64 * 72


class TestStrike:
    def test_strike_no_interleave_multibit_word(self, rng):
        array = make_secded_array(interleave=1)
        cluster = MbuCluster(size=3, offsets=(0, 1, 2))
        applied = array.strike(7, cluster, MbuModel(), rng)
        assert len(applied) == 1
        assert applied[0][0] == 7
        assert applied[0][1] == 3

    def test_strike_interleaved_spreads_bits(self, rng):
        array = make_parity_array()
        cluster = MbuCluster(size=3, offsets=(0, 1, 2))
        applied = array.strike(7, cluster, MbuModel(), rng)
        assert len(applied) == 3
        assert all(bits == 1 for _, bits in applied)

    def test_strike_wraps_word_index(self, rng):
        array = make_parity_array(words=4)
        cluster = MbuCluster(size=3, offsets=(0, 1, 2))
        applied = array.strike(3, cluster, MbuModel(), rng)
        words = {w for w, _ in applied}
        assert words.issubset({0, 1, 2, 3})


class TestScrub:
    def test_scrub_reports_and_clears_everything(self, rng):
        array = make_secded_array()
        for word in (1, 5, 9):
            array.inject_bit_flip(word, word)
        records = list(array.scrub())
        assert sorted(r.word for r in records) == [1, 5, 9]
        assert list(array.scrub()) == []

    def test_clear_drops_state_silently(self):
        array = make_secded_array()
        array.inject_bit_flip(1, 1)
        array.clear()
        assert list(array.scrub()) == []
