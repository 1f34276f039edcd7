"""Frame formats for the bit-serial mesh links.

Paper section 2.2: "The type of packet that is being sent is encoded into
an 8 bit packet header, with codes determined so that a single bit error
will not cause a packet to be misinterpreted.  The packet header also
contains two parity bits for the data sent and a single bit error causes an
automatic resend in hardware.  In addition, checksums at each end of the
link are kept."

We realise that with a [6,3,3] linear code for the 6 type bits (minimum
Hamming distance 3: any single-bit flip lands outside the codebook and is
*detected*, never decoded as a different valid type) plus two payload parity
bits (even-position and odd-position bit parity of the 64-bit word).
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

import numpy as np

from repro.util.errors import ProtocolError
from repro.util.hotpath import hot_path


class PacketType(Enum):
    """Link-level frame types (values are [6,3,3] codewords)."""

    IDLE = 0b000000  # exchanged when no data flows (trained-link keepalive)
    NORMAL = 0b001011  # 64-bit data word of a DMA transfer
    SUPERVISOR = 0b010101  # 64-bit word to a neighbour SCU register + IRQ
    PARTITION_IRQ = 0b011110  # 8-bit flood-forwarded partition interrupt
    ACK = 0b100110  # acknowledgement (window credit return)
    TRAIN = 0b101101  # HSSL training sequence byte
    RESEND = 0b110011  # parity/header failure: resend last window
    EOT = 0b111000  # end of DMA transfer marker


_VALID_CODES = {t.value: t for t in PacketType}
_PARTITION_IRQ = PacketType.PARTITION_IRQ  # bound once for Frame.wire_bits


def hamming(a: int, b: int) -> int:
    """Bit-difference count of two ints."""
    return bin(a ^ b).count("1")


def min_code_distance() -> int:
    """Minimum pairwise Hamming distance of the type codebook (3)."""
    codes = [t.value for t in PacketType]
    return min(
        hamming(a, b) for i, a in enumerate(codes) for b in codes[i + 1 :]
    )


def parity_bits(word: int) -> int:
    """Two parity bits over a 64-bit payload: even-position and odd-position.

    Covering the two bit phases separately means the common failure mode of
    a serdes sampling-point drift (errors clustered on one phase) is still
    caught by one of the two bits.
    """
    word &= (1 << 64) - 1
    even = word & 0x5555_5555_5555_5555
    odd = word & 0xAAAA_AAAA_AAAA_AAAA
    p_even = bin(even).count("1") & 1
    p_odd = bin(odd).count("1") & 1
    return (p_odd << 1) | p_even


def encode_header(ptype: PacketType, payload_word: int = 0) -> int:
    """8-bit header: 6 type-code bits then 2 payload-parity bits."""
    return (ptype.value << 2) | parity_bits(payload_word)


def decode_header(header: int, payload_word: int = 0):
    """Return ``(PacketType, parity_ok)``.

    Raises :class:`ProtocolError` when the 6 type bits are not a valid
    codeword — the "never misinterpreted" guarantee: a corrupted type is
    *rejected*, not mistaken for another type.
    """
    code = (header >> 2) & 0x3F
    ptype = _VALID_CODES.get(code)
    if ptype is None:
        raise ProtocolError(f"corrupt header type code {code:06b}")
    parity_ok = (header & 0x3) == parity_bits(payload_word)
    return ptype, parity_ok


#: shared zero-length payload for control frames (ACK/RESEND/IDLE/EOT) —
#: read-only, so every control frame can alias it instead of allocating
#: a fresh empty array per frame on the steady-state wire path.
_NO_WORDS = np.empty(0, dtype=np.uint64)
_NO_WORDS.setflags(write=False)


class Frame:
    """One link-level frame: a typed header plus payload words.

    The wire serialises ``header + 64-bit word`` pairs; for simulation
    efficiency a frame may batch several payload words of the *same* DMA
    transfer (the SCU protocol then operates at batch granularity —
    semantics are unchanged for error-free runs, and protocol-level tests
    use single-word frames).

    ``words`` is taken as given, a flat ``uint64`` array: a payload is brought
    to that form where its transfer starts (``SendUnit.start``), not per frame.
    """

    __slots__ = ("ptype", "words", "seq", "corrupt_bit", "nwords")

    @hot_path
    def __init__(
        self,
        ptype: PacketType,
        words: np.ndarray = _NO_WORDS,
        seq: int = 0,
        corrupt_bit: Optional[int] = None,
    ):
        self.ptype = ptype
        self.words = words
        #: transfer-local sequence number of the first word
        self.seq = seq
        #: corruption injected by the fault model: index of flipped bit, or None
        self.corrupt_bit = corrupt_bit
        self.nwords = len(words)

    def wire_bits(self, header_bits: int = 8, payload_bits: int = 64) -> int:
        """Bits on the wire: one header per frame plus its payload words.

        Partition-interrupt packets carry only 8 payload bits (paper
        section 2.2 item 3); control frames (ACK/RESEND/IDLE/EOT) are a
        bare header.  A multi-word data frame amortises the header over
        the batch — ``header + n*payload`` bits — which is the face-batch
        wire accounting: ``bits(n, batch) = ceil(n/batch)*header +
        n*payload`` for an error-free n-word transfer.  Single-word frames
        (``word_batch=1``) cost exactly ``header + payload`` bits, so the
        protocol suite's per-word timing closed forms are unchanged.
        """
        if self.ptype is _PARTITION_IRQ:
            return header_bits + 8
        return header_bits + self.nwords * payload_bits

    def is_corrupt(self) -> bool:
        return self.corrupt_bit is not None


_WORD_MASK = (1 << 64) - 1


class LinkChecksum:
    """Running checksum of every payload word that crossed one link end.

    Paper section 2.2: "checksums at each end of the link are kept, so at
    the conclusion of a calculation, these checksums can be compared.  This
    offers a final confirmation that no erroneous data was exchanged."
    Kept as a Python int modulo 2**64, so a one-word frame costs no numpy call.
    """

    def __init__(self):
        self.value = 0
        self.words = 0

    @hot_path
    def update(self, words: np.ndarray) -> None:
        n = len(words)
        if n == 1:
            self.value = (self.value + words.item(0)) & _WORD_MASK
        else:
            self.value = (self.value + int(words.sum(dtype=np.uint64))) & _WORD_MASK
        self.words += n

    def matches(self, other: "LinkChecksum") -> bool:
        return self.value == other.value and self.words == other.words

    def __repr__(self) -> str:
        return f"LinkChecksum(words={self.words}, value={self.value:#018x})"


def float_to_words(a: np.ndarray) -> np.ndarray:
    """Bit-cast a float64/complex128 array to the uint64 wire format."""
    arr = np.ascontiguousarray(a)
    if arr.dtype == np.complex128:
        arr = arr.view(np.float64)
    if arr.dtype != np.float64 and arr.dtype != np.uint64:
        arr = arr.astype(np.float64)
    return arr.reshape(-1).view(np.uint64)


def words_to_float(words: np.ndarray, complex_: bool = False) -> np.ndarray:
    """Inverse of :func:`float_to_words`."""
    f = np.ascontiguousarray(words, dtype=np.uint64).view(np.float64)
    return f.view(np.complex128) if complex_ else f
