"""Addressable SRAM array with a sparse upset store.

Real arrays on the X-Gene 2 range from 20-entry TLBs to the 8 MB L3.
Materializing every bit would waste memory for no fidelity gain -- the
beam only touches a handful of words per session -- so upsets are kept
sparsely: ``word index -> accumulated flip mask`` over the *stored*
codeword bits (data + check bits).

Access semantics mirror the platform's RAS behaviour (Section 3.1):

* on a read, the protection codec decodes the stored word;
* parity arrays invalidate + refetch on detection (flips cleared, data
  intact thanks to the write-through policy);
* SECDED arrays correct single-bit errors in place and flag double-bit
  errors as uncorrected;
* either way the access is logged so the EDAC layer can report it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import GeometryError, InjectionError
from .mbu import MbuCluster, MbuModel
from .protection import (
    Codec,
    CodecResult,
    DecodeStatus,
    ParityCodec,
    SecdedCodec,
    flips_from_bit_indices,
)


@dataclass(frozen=True)
class ArrayGeometry:
    """Logical geometry of one SRAM array.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"core0.l1d"``.
    words:
        Number of protected words.
    data_bits:
        Data bits per word (excluding check bits).
    interleave:
        Column-interleaving factor; physical MBU clusters are spread
        over this many logical words.  1 means no interleaving (L3).
    """

    name: str
    words: int
    data_bits: int
    interleave: int = 4

    def __post_init__(self) -> None:
        if self.words < 1:
            raise GeometryError(f"{self.name}: word count must be >= 1")
        if self.data_bits < 1:
            raise GeometryError(f"{self.name}: word width must be >= 1")
        if self.interleave < 1:
            raise GeometryError(f"{self.name}: interleave must be >= 1")

    @classmethod
    def from_bytes(
        cls, name: str, capacity_bytes: int, data_bits: int = 64, interleave: int = 4
    ) -> "ArrayGeometry":
        """Build a geometry from a capacity in bytes."""
        total_bits = capacity_bytes * 8
        if total_bits % data_bits:
            raise GeometryError(
                f"{name}: {capacity_bytes} bytes not divisible into "
                f"{data_bits}-bit words"
            )
        return cls(
            name=name,
            words=total_bits // data_bits,
            data_bits=data_bits,
            interleave=interleave,
        )


@dataclass(frozen=True)
class UpsetRecord:
    """One upset observed when a word was accessed.

    Attributes
    ----------
    array:
        Name of the array the upset occurred in.
    word:
        Logical word index.
    flipped_bits:
        Number of stored bits that were flipped in the word.
    status:
        The codec's classification of the access.
    """

    array: str
    word: int
    flipped_bits: int
    status: DecodeStatus


class SramArray:
    """One protected SRAM array with sparse upset state.

    Parameters
    ----------
    geometry:
        Logical shape of the array.
    codec:
        Protection codec (parity or SECDED) applied per word.
    domain:
        Name of the voltage domain feeding the array ("pmd" or "soc");
        consumers use it to pick the right supply voltage.
    """

    def __init__(self, geometry: ArrayGeometry, codec: Codec, domain: str) -> None:
        if codec.data_bits != geometry.data_bits:
            raise GeometryError(
                f"{geometry.name}: codec protects {codec.data_bits}-bit words "
                f"but geometry declares {geometry.data_bits}-bit words"
            )
        self.geometry = geometry
        self.codec = codec
        self.domain = domain
        # word index -> accumulated flip mask over stored (codeword) bits
        self._flips: Dict[int, int] = {}
        # Flip-count -> DecodeStatus shortcuts for the vectorized hot
        # path.  For these counts the decode outcome is independent of
        # *which* distinct stored bits flipped: any single flip is
        # corrected by SECDED and detected by parity, and any double
        # flip trips SECDED's overall-parity check.  Higher counts (and
        # unknown codecs) depend on the actual positions and go through
        # the real codec in :meth:`classify_flip_count`.
        self._count_status: Dict[int, DecodeStatus] = {}
        if isinstance(codec, SecdedCodec):
            self._count_status = {
                1: DecodeStatus.CORRECTED,
                2: DecodeStatus.DETECTED_UNCORRECTABLE,
            }
        elif isinstance(codec, ParityCodec):
            self._count_status = {1: DecodeStatus.DETECTED_UNCORRECTABLE}

    # -- introspection --------------------------------------------------------

    @property
    def name(self) -> str:
        """The array's identifier."""
        return self.geometry.name

    @property
    def stored_bits(self) -> int:
        """Total stored bits (data + check) -- the beam target area."""
        return self.geometry.words * self.codec.word_bits

    # -- fault injection -------------------------------------------------------

    def inject_bit_flip(self, word: int, bit: int) -> None:
        """Flip one stored bit of *word* (bit index over the codeword)."""
        self._check_word(word)
        if not 0 <= bit < self.codec.word_bits:
            raise InjectionError(
                f"{self.name}: bit {bit} outside {self.codec.word_bits}-bit word"
            )
        self._flips[word] = self._flips.get(word, 0) ^ (1 << bit)
        if self._flips[word] == 0:
            del self._flips[word]

    def strike(
        self,
        word: int,
        cluster: MbuCluster,
        mbu_model: MbuModel,
        rng: np.random.Generator,
    ) -> List[Tuple[int, int]]:
        """Apply a physical upset cluster landing on *word*.

        The cluster is folded through the array's column interleaving:
        adjacent physical cells map to different logical words, so a
        size-3 cluster on a 4-way interleaved array produces three
        single-bit word errors rather than one triple-bit error.

        Returns the list of ``(word, bits_flipped)`` actually applied.
        """
        self._check_word(word)
        applied: List[Tuple[int, int]] = []
        per_word = mbu_model.split_by_interleaving(
            cluster, self.geometry.interleave, self.codec.word_bits
        )
        for word_delta, nbits in per_word:
            target = (word + word_delta) % self.geometry.words
            # Choose distinct random stored-bit positions for the flips.
            positions = rng.choice(
                self.codec.word_bits, size=min(nbits, self.codec.word_bits),
                replace=False,
            )
            for bit in np.atleast_1d(positions):
                self.inject_bit_flip(target, int(bit))
            applied.append((target, int(len(np.atleast_1d(positions)))))
        return applied

    def classify_flip_count(
        self, nbits: int, rng: np.random.Generator
    ) -> DecodeStatus:
        """Decode outcome of *nbits* distinct random stored-bit flips.

        This is the vectorized injector's severity oracle: it returns
        the same :class:`DecodeStatus` a strike-then-access round trip
        on a clean word would, without mutating array state.  Counts
        whose outcome is position-independent (see ``_count_status``)
        are answered from the precomputed table; everything else --
        notably >= 3-bit flips on the non-interleaved L3, where SECDED
        miscorrection pathologies live -- samples concrete positions
        and runs the real codec so the emergent physics is preserved.
        """
        if nbits < 1:
            raise InjectionError("flip count must be >= 1")
        status = self._count_status.get(nbits)
        if status is not None:
            return status
        positions = rng.choice(
            self.codec.word_bits,
            size=min(nbits, self.codec.word_bits),
            replace=False,
        )
        mask = flips_from_bit_indices(
            tuple(int(b) for b in np.atleast_1d(positions))
        )
        return self.codec.classify(0, mask).status

    # -- access / scrub ---------------------------------------------------------

    def access(self, word: int, data: int = 0) -> Tuple[CodecResult, Optional[UpsetRecord]]:
        """Read *word* whose fault-free content is *data*.

        Decodes through the protection codec, clears the word's flips
        (invalidate+refetch for parity, in-place correction or line
        replacement for SECDED), and returns the codec result plus an
        :class:`UpsetRecord` if anything was logged.
        """
        self._check_word(word)
        mask = self._flips.pop(word, 0)
        result = self.codec.classify(data, mask)
        if (
            result.status == DecodeStatus.DETECTED_UNCORRECTABLE
            and self.codec.refetch_on_detect
        ):
            # Parity arrays are write-through: the detected entry is
            # invalidated and refetched, so the consumer sees the
            # original data despite the detection.
            result = CodecResult(DecodeStatus.DETECTED_UNCORRECTABLE, data)
        record: Optional[UpsetRecord] = None
        if mask and result.status != DecodeStatus.CLEAN:
            record = UpsetRecord(
                array=self.name,
                word=word,
                flipped_bits=bin(mask).count("1"),
                status=result.status,
            )
        return result, record

    def scrub(self) -> Iterator[UpsetRecord]:
        """Background-scrub every dirty word, yielding upset records.

        Models the periodic patrol scrubbing / natural access recurrence
        that eventually surfaces latent upsets to the EDAC log.
        """
        for word in list(self._flips):
            _, record = self.access(word)
            if record is not None:
                yield record

    def clear(self) -> None:
        """Drop all pending flips (e.g. after a power cycle)."""
        self._flips.clear()

    def _check_word(self, word: int) -> None:
        if not 0 <= word < self.geometry.words:
            raise InjectionError(
                f"{self.name}: word {word} outside [0, {self.geometry.words})"
            )

    def __repr__(self) -> str:
        return (
            f"SramArray({self.name!r}, words={self.geometry.words}, "
            f"codec={self.codec!r}, domain={self.domain!r})"
        )
