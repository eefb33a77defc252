"""Vectorized codec hot path: batched syndrome decoding over numpy.

The explorer sweeps classify tens of thousands of corrupted words per
cell; doing that through the scalar :class:`~repro.sram.protection.Codec`
interface would dominate the sweep.  This module mirrors the injector's
vectorization strategy: codewords are packed into ``(N, L)`` uint64
limb matrices (``L = ceil(word_bits / 64)``, so 1 or 2 for every
registered codec), the parity-check matrix is packed the same way, and
a decode is a handful of whole-batch popcount/XOR/searchsorted
operations instead of a per-word python loop.

Flip masks reach the batch two ways: :func:`run_masks` builds the
explorer's contiguous MBU runs for a whole batch, limb by limb, and
:func:`pack_masks` adapts arbitrary python-int patterns.  Either way
``classify_batch`` refuses a flip outside the codeword, as the scalar
oracle does.

Statuses travel as small integer codes (:data:`CLEAN` .. :data:`SILENT`)
so outcome counting is a ``bincount``; :data:`STATUS_OF_CODE` maps back
to :class:`~repro.sram.protection.DecodeStatus` at the boundary.

Every vectorized decoder keeps its scalar twin as the differential
reference -- the ``codec_scalar_vs_vectorized`` pairing in
:mod:`repro.validate.differential` asserts exact status and data
equality between the two paths for every registered codec.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import CodecError
from ..sram.protection import (
    Codec,
    DecodeStatus,
    ParityCodec,
    SecdedCodec,
)
from .linear import SyndromeTableCodec

#: Integer status codes used on the batched path.
CLEAN = 0
CORRECTED = 1
DUE = 2
SILENT = 3

#: Batched status code -> DecodeStatus, index-aligned.
STATUS_OF_CODE: Tuple[DecodeStatus, ...] = (
    DecodeStatus.CLEAN,
    DecodeStatus.CORRECTED,
    DecodeStatus.DETECTED_UNCORRECTABLE,
    DecodeStatus.SILENT,
)
#: DecodeStatus -> batched status code.
CODE_OF_STATUS = {status: code for code, status in enumerate(STATUS_OF_CODE)}

_U64 = np.uint64

#: ``_ONES_BELOW[k] == (1 << k) - 1`` for ``k`` in ``[0, 64]``, built
#: from python ints.  Looking masks up covers the full 64-bit limb,
#: which a numpy shift does not: ``1 << 64`` is not zero on every numpy.
_ONES_BELOW = np.array([(1 << k) - 1 for k in range(65)], dtype=_U64)


def limbs_for(word_bits: int) -> int:
    """Number of uint64 limbs needed for *word_bits*-bit codewords."""
    return (word_bits + 63) // 64


if hasattr(np, "bitwise_count"):

    def popcount64(values: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array, as int64."""
        return np.bitwise_count(values).astype(np.int64)

else:  # pragma: no cover - numpy < 2.0 fallback

    def popcount64(values: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array (SWAR), as int64."""
        v = values.astype(np.uint64, copy=True)
        v -= (v >> _U64(1)) & _U64(0x5555555555555555)
        v = (v & _U64(0x3333333333333333)) + (
            (v >> _U64(2)) & _U64(0x3333333333333333)
        )
        v = (v + (v >> _U64(4))) & _U64(0x0F0F0F0F0F0F0F0F)
        return ((v * _U64(0x0101010101010101)) >> _U64(56)).astype(np.int64)


def pack_masks(masks: Sequence[int], limbs: int) -> np.ndarray:
    """Pack python-int bit masks into an ``(N, limbs)`` uint64 matrix.

    The adapter for arbitrary bit patterns; contiguous runs take the
    whole-batch :func:`run_masks` kernel instead.  A negative mask or
    one with a bit at or above ``64 * limbs`` has no faithful packing
    and raises :class:`~repro.errors.CodecError` rather than being
    truncated.
    """
    width = 64 * limbs
    packed = np.zeros((len(masks), limbs), dtype=_U64)
    for i, mask in enumerate(masks):
        mask = int(mask)
        if mask < 0 or mask >> width:
            raise CodecError(
                f"bit mask {mask:#x} does not fit in {limbs} limb(s) "
                f"of {width} unsigned bits"
            )
        for limb in range(limbs):
            packed[i, limb] = (mask >> (64 * limb)) & 0xFFFFFFFFFFFFFFFF
    return packed


def run_masks(starts, lengths, limbs: int) -> np.ndarray:
    """Pack contiguous bit runs into an ``(N, limbs)`` uint64 matrix.

    Row ``i`` flips bits ``[starts[i], starts[i] + lengths[i])`` and
    equals ``pack_masks([((1 << lengths[i]) - 1) << starts[i]], limbs)``
    (a zero-length run packs to 0), built limb by limb for the whole
    batch: each limb clips the run to its own 64 bits and keeps the
    ones below the clipped end that are not below the clipped start.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.ndim != 1 or starts.shape != lengths.shape:
        raise CodecError(
            f"run starts {starts.shape} and lengths {lengths.shape} must "
            f"be matching 1-D arrays"
        )
    ends = starts + lengths
    width = 64 * limbs
    if starts.size and (
        starts.min() < 0 or lengths.min() < 0 or ends.max() > width
    ):
        raise CodecError(
            f"bit runs must have start >= 0, length >= 0 and end <= "
            f"{width} to fit in {limbs} limb(s)"
        )
    packed = np.empty((starts.shape[0], limbs), dtype=_U64)
    for limb in range(limbs):
        base = 64 * limb
        lo = np.clip(starts - base, 0, 64)
        hi = np.clip(ends - base, 0, 64)
        packed[:, limb] = _ONES_BELOW[hi] & ~_ONES_BELOW[lo]
    return packed


def _pack_one(mask: int, limbs: int) -> np.ndarray:
    return pack_masks([mask], limbs)[0]


class VectorizedCodec:
    """Base class: batched encode/decode/classify over (N, L) limbs.

    ``classify_batch`` reproduces :meth:`Codec.classify` exactly:
    detected-uncorrectable passes through, any surviving data mismatch
    becomes SILENT, and flips that cancel inside the check bits stay
    CLEAN.
    """

    def __init__(self, scalar: Codec) -> None:
        self.scalar = scalar
        self.limbs = limbs_for(scalar.word_bits)

    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        """Encode a (N,) uint64 data vector into (N, L) codeword limbs."""
        raise NotImplementedError

    def decode_batch(
        self, codewords: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode (N, L) codeword limbs -> (status codes uint8, data uint64)."""
        raise NotImplementedError

    def classify_batch(
        self, data: np.ndarray, flips: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Oracle classification of (N,) data words under (N, L) flip limbs."""
        data = np.asarray(data, dtype=_U64)
        flips = np.asarray(flips, dtype=_U64)
        if flips.ndim == 1:
            # A flat mask vector is unambiguous for single-limb codes;
            # anything else would silently broadcast (N,1)^(N,) into an
            # (N,N) batch, so refuse instead.
            if self.limbs != 1:
                raise CodecError(
                    f"{self.scalar.word_bits}-bit codewords span "
                    f"{self.limbs} limbs; pack flip masks with "
                    f"pack_masks() into shape (N, {self.limbs})"
                )
            flips = flips[:, np.newaxis]
        # A flip outside the codeword has no physical meaning; the
        # scalar oracle refuses it, so the batch must not classify it.
        top_bits = self.scalar.word_bits - 64 * (self.limbs - 1)
        if top_bits < 64 and np.any(flips[:, -1] >> _U64(top_bits)):
            raise CodecError(
                f"flip mask has a bit at or above bit "
                f"{self.scalar.word_bits}, outside the "
                f"{self.scalar.word_bits}-bit codeword"
            )
        codewords = self.encode_batch(data) ^ flips
        status, out = self.decode_batch(codewords)
        silent = (status != DUE) & (out != data)
        return np.where(silent, SILENT, status).astype(np.uint8), out


class ScalarFallbackVectorized(VectorizedCodec):
    """Batch adapter looping over the scalar codec (plugin default).

    Correct for any :class:`Codec`; offers no speedup.  Registered
    plugins that care about throughput supply a real ``vector_factory``.
    """

    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        encoded = [self.scalar.encode(int(word)) for word in data]
        return pack_masks(encoded, self.limbs)

    def decode_batch(
        self, codewords: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        count = codewords.shape[0]
        status = np.zeros(count, dtype=np.uint8)
        out = np.zeros(count, dtype=_U64)
        for i in range(count):
            word = 0
            for limb in range(self.limbs):
                word |= int(codewords[i, limb]) << (64 * limb)
            result = self.scalar.decode(word)
            status[i] = CODE_OF_STATUS[result.status]
            out[i] = result.data
        return status, out


class VectorizedParity(VectorizedCodec):
    """Batched even parity: total-popcount oddness is the whole decode."""

    def __init__(self, scalar: ParityCodec) -> None:
        if scalar.word_bits > 64:
            raise CodecError("vectorized parity supports <= 63 data bits")
        super().__init__(scalar)
        self._data_mask = _U64((1 << scalar.data_bits) - 1)
        self._shift = _U64(scalar.data_bits)

    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=_U64)
        parity = (popcount64(data) & 1).astype(_U64)
        return (data | (parity << self._shift))[:, np.newaxis]

    def decode_batch(
        self, codewords: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        words = codewords[:, 0]
        data = words & self._data_mask
        odd = (popcount64(words) & 1).astype(bool)
        status = np.where(odd, DUE, CLEAN).astype(np.uint8)
        return status, data.astype(_U64)


class VectorizedSecded(VectorizedCodec):
    """Batched SECDED mirroring :class:`SecdedCodec` bit-for-bit.

    The check masks are derived from the scalar codec's own Hamming
    layout (``_positions`` / ``_hamming_checks``), so the two paths
    cannot drift: syndrome-beyond-n phantom corrections, parity-bit
    self-flips, and the triple-error miscorrection pathology all fall
    out of the same positions.
    """

    def __init__(self, scalar: SecdedCodec) -> None:
        super().__init__(scalar)
        n = scalar.data_bits + scalar._hamming_checks
        if n + 1 > 128:
            raise CodecError("vectorized SECDED supports at most 127+1 bits")
        self._n = n
        self._checks = scalar._hamming_checks
        check_masks = []
        for c in range(self._checks):
            p = 1 << c
            mask = 0
            for pos in range(1, n + 1):
                if pos & p:
                    mask |= 1 << pos
            check_masks.append(_pack_one(mask, self.limbs))
        self._check_masks = np.stack(check_masks)
        self._overall_mask = _pack_one((1 << (n + 1)) - 1, self.limbs)
        # position -> data index scatter tables, split by limb.
        self._positions = sorted(scalar._positions.items())

    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=_U64)
        codewords = np.zeros((data.shape[0], self.limbs), dtype=_U64)
        for pos, data_idx in self._positions:
            bit = (data >> _U64(data_idx)) & _U64(1)
            codewords[:, pos // 64] |= bit << _U64(pos % 64)
        for c in range(self._checks):
            p = 1 << c
            acc = np.zeros(data.shape[0], dtype=np.int64)
            for limb in range(self.limbs):
                acc += popcount64(codewords[:, limb] & self._check_masks[c, limb])
            # The check position itself is still zero, so the mask sum
            # over the other covered positions is the check-bit value.
            codewords[:, p // 64] |= ((acc & 1).astype(_U64)) << _U64(p % 64)
        overall = np.zeros(data.shape[0], dtype=np.int64)
        for limb in range(self.limbs):
            overall += popcount64(codewords[:, limb])
        codewords[:, 0] |= (overall & 1).astype(_U64)
        return codewords

    def decode_batch(
        self, codewords: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        count = codewords.shape[0]
        syndrome = np.zeros(count, dtype=np.int64)
        for c in range(self._checks):
            acc = np.zeros(count, dtype=np.int64)
            for limb in range(self.limbs):
                acc += popcount64(codewords[:, limb] & self._check_masks[c, limb])
            syndrome |= (acc & 1) << c
        overall = np.zeros(count, dtype=np.int64)
        for limb in range(self.limbs):
            overall += popcount64(codewords[:, limb] & self._overall_mask[limb])
        overall &= 1

        correct_single = (syndrome != 0) & (overall == 1)
        # Flip the syndrome position where it is a real one (<= n);
        # syndromes beyond n are phantom corrections that leave the
        # word untouched but still report CORRECTED (scalar semantics).
        corrected = codewords.copy()
        in_limb0 = correct_single & (syndrome < 64)
        shift0 = np.where(in_limb0, syndrome, 0).astype(_U64)
        corrected[:, 0] ^= np.where(in_limb0, _U64(1) << shift0, _U64(0))
        if self.limbs > 1:
            in_limb1 = correct_single & (syndrome >= 64) & (syndrome <= self._n)
            shift1 = np.where(in_limb1, syndrome - 64, 0).astype(_U64)
            corrected[:, 1] ^= np.where(in_limb1, _U64(1) << shift1, _U64(0))

        status = np.full(count, DUE, dtype=np.uint8)
        status[(syndrome == 0) & (overall == 0)] = CLEAN
        status[overall == 1] = CORRECTED

        data = np.zeros(count, dtype=_U64)
        for pos, data_idx in self._positions:
            bit = (corrected[:, pos // 64] >> _U64(pos % 64)) & _U64(1)
            data |= bit << _U64(data_idx)
        return status, data


class VectorizedTableCodec(VectorizedCodec):
    """Batched syndrome-table decode for :class:`SyndromeTableCodec`.

    The H rows come packed from the scalar codec; correction is a
    ``searchsorted`` into the sorted syndrome array followed by an XOR
    with the matching flip limbs.
    """

    def __init__(self, scalar: SyndromeTableCodec) -> None:
        if scalar.data_bits > 64:
            raise CodecError("vectorized table codec supports <= 64 data bits")
        if scalar.word_bits > 128:
            raise CodecError("vectorized table codec supports <= 128-bit words")
        super().__init__(scalar)
        self._k = scalar.data_bits
        self._r = scalar.check_bits
        self._rows = np.stack(
            [_pack_one(row, self.limbs) for row in scalar.h_rows]
        )
        self._data_masks = np.array(scalar.data_masks, dtype=_U64)
        syndromes = np.array(sorted(scalar.syndrome_table), dtype=np.int64)
        self._syndromes = syndromes
        self._flips = pack_masks(
            [scalar.syndrome_table[int(s)] for s in syndromes], self.limbs
        )
        if self._k == 64:
            self._data_mask = _U64(0xFFFFFFFFFFFFFFFF)
        else:
            self._data_mask = _U64((1 << self._k) - 1)

    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=_U64)
        checks = np.zeros(data.shape[0], dtype=np.int64)
        for j in range(self._r):
            bit = popcount64(data & self._data_masks[j]) & 1
            checks |= bit << j
        codewords = np.zeros((data.shape[0], self.limbs), dtype=_U64)
        if self._k == 64:
            codewords[:, 0] = data
            if self.limbs > 1:
                codewords[:, 1] = checks.astype(_U64)
            else:  # pragma: no cover - no registered codec hits this
                raise CodecError("64 data bits need a second limb")
        else:
            codewords[:, 0] = data | (checks.astype(_U64) << _U64(self._k))
        return codewords

    def decode_batch(
        self, codewords: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        count = codewords.shape[0]
        syndrome = np.zeros(count, dtype=np.int64)
        for j in range(self._r):
            acc = np.zeros(count, dtype=np.int64)
            for limb in range(self.limbs):
                acc += popcount64(codewords[:, limb] & self._rows[j, limb])
            syndrome |= (acc & 1) << j
        index = np.searchsorted(self._syndromes, syndrome)
        clipped = np.minimum(index, len(self._syndromes) - 1)
        hit = (self._syndromes[clipped] == syndrome) & (syndrome != 0)
        flips = np.where(
            hit[:, np.newaxis], self._flips[clipped], _U64(0)
        )
        corrected = codewords ^ flips
        status = np.full(count, DUE, dtype=np.uint8)
        status[syndrome == 0] = CLEAN
        status[hit] = CORRECTED
        data = corrected[:, 0] & self._data_mask
        return status, data.astype(_U64)
