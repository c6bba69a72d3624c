"""Vectorized bit-level helpers shared by the integer coders.

* :func:`pack_codes` — fully vectorized packing of per-symbol
  variable-length codes (MSB first), used by the Huffman encoder and the
  bit-adaptive packer, where the (code, length) pairs for the whole
  symbol array are known up front.
* :func:`encode_varints` / :func:`decode_varints` / :func:`varint_size` —
  LEB128 varints, and :func:`zigzag_encode` / :func:`zigzag_decode`, the
  mapping between signed and unsigned integers, shared by the quantized
  int-stream side channel and several baselines (TNG, HRTC, LFZip).
* :func:`clz64` — leading-zero count of 64-bit words (varint sizing, the
  Gorilla baseline).

:class:`BitWriter` is the scalar MSB-first bit stream that
:func:`pack_codes` is checked against.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DecompressionError


class BitWriter:
    """Appends individual bit fields to a growing byte buffer (MSB first)."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0  # pending bits, left-aligned in an int
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the lowest ``nbits`` bits of ``value`` (MSB first)."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        if nbits == 0:
            return
        value &= (1 << nbits) - 1
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._bytes.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        """Return the stream, zero-padding the final partial byte."""
        out = bytes(self._bytes)
        if self._nbits:
            out += bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return out

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return 8 * len(self._bytes) + self._nbits


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed integers to unsigned: 0,-1,1,-2,2... -> 0,1,2,3,4..."""
    v = np.asarray(values, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    u = np.asarray(values, dtype=np.uint64)
    return ((u >> np.uint64(1)).astype(np.int64)) ^ -(u & np.uint64(1)).astype(
        np.int64
    )


def encode_varints(values: np.ndarray) -> bytes:
    """LEB128-encode an array of unsigned integers (vectorized).

    Every value is split into 7-bit groups, little-endian, with the high bit
    of each byte marking continuation.  The whole array is processed with
    numpy; no per-element Python loop is involved.
    """
    u = np.asarray(values, dtype=np.uint64)
    if u.size == 0:
        return b""
    # Number of 7-bit groups per value (at least one).
    nbits = np.maximum(1, 64 - clz64(u))
    ngroups = (nbits + 6) // 7
    total = int(ngroups.sum())
    out = np.empty(total, dtype=np.uint8)
    offsets = np.concatenate(([0], np.cumsum(ngroups)[:-1]))
    max_groups = int(ngroups.max())
    shifted = u.copy()
    for g in range(max_groups):
        active = ngroups > g
        if not active.any():
            break
        idx = offsets[active] + g
        byte = (shifted[active] & np.uint64(0x7F)).astype(np.uint8)
        more = (ngroups[active] - 1) > g
        out[idx] = byte | (more.astype(np.uint8) << 7)
        shifted[active] >>= np.uint64(7)
    return out.tobytes()


def varint_size(values: np.ndarray) -> int:
    """Exact byte length of ``encode_varints(values)`` without encoding.

    One byte per 7-bit group; pure array arithmetic, so sizing a side
    channel for an estimate costs a fraction of materializing it.
    """
    u = np.asarray(values, dtype=np.uint64)
    if u.size == 0:
        return 0
    nbits = np.maximum(1, 64 - clz64(u))
    return int(((nbits + 6) // 7).sum())


def decode_varints(data: bytes, count: int) -> np.ndarray:
    """Decode ``count`` LEB128 varints from ``data`` (vectorized)."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    is_last = (raw & 0x80) == 0
    ends = np.flatnonzero(is_last)
    if ends.size < count:
        raise DecompressionError("varint stream truncated")
    ends = ends[:count]
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts + 1
    if (lengths > 10).any():
        raise DecompressionError("varint longer than 64 bits")
    values = np.zeros(count, dtype=np.uint64)
    max_len = int(lengths.max())
    for g in range(max_len):
        active = lengths > g
        idx = starts[active] + g
        values[active] |= (raw[idx] & np.uint64(0x7F)).astype(np.uint64) << np.uint64(
            7 * g
        )
    return values


def clz64(u: np.ndarray) -> np.ndarray:
    """Count leading zeros of uint64 values (vectorized).

    Implemented with one ``frexp`` call: the float64 exponent of ``u`` is
    the bit length, except that rounding to 53 bits of mantissa can push a
    value just below ``2**k`` up to exactly ``2**k`` (overstating the bit
    length by one).  A single shift test detects and undoes that, so the
    result is exact over the full uint64 range — including ``2**64 - 1``,
    which rounds to ``2**64`` (exponent 65, clamped before the check).
    """
    u = np.asarray(u).astype(np.uint64)
    _, exponent = np.frexp(u.astype(np.float64))
    bit_length = np.minimum(exponent.astype(np.int64), 64)
    shift = np.where(bit_length > 0, bit_length - 1, 0).astype(np.uint64)
    overshoot = (bit_length > 0) & ((u >> shift) == 0)
    return 64 - (bit_length - overshoot.astype(np.int64))


#: Symbols per chunk in :func:`pack_codes`.  Bounds the transient
#: per-symbol work arrays (a handful of uint64/int64 vectors of this
#: length, ~50 MB at 4 Mi symbols) no matter how large the input is.
PACK_CHUNK = 1 << 22


def _merge_pairs(
    codes: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate adjacent (code, length) pairs into single wider codes.

    Bit-string concatenation is associative, so replacing symbols
    ``2i, 2i+1`` with ``(code[2i] << len[2i+1]) | code[2i+1]`` leaves the
    packed output unchanged while halving the number of elements every
    later stage has to touch.  Callers must guarantee the merged length
    fits 64 bits.
    """
    if codes.size % 2:
        codes = np.append(codes, np.uint64(0))
        lengths = np.append(lengths, np.int64(0))
    merged = (codes[0::2] << lengths[1::2].astype(np.uint64)) | codes[1::2]
    return merged, lengths[0::2] + lengths[1::2]


def _place_codes(
    words: np.ndarray, codes: np.ndarray, lengths: np.ndarray, base_bit: int
) -> None:
    """OR ``codes`` (< 64 bits each, pre-masked) into the 64-bit word
    array at consecutive bit offsets starting at ``base_bit``.

    Each code lands in at most two words (MSB-first).  Per-word
    contributions never share bits, so the segmented OR over each word's
    contributions equals a segmented *sum* — computed as a difference of
    the running cumulative sum (exact even when the modular cumsum wraps),
    which avoids the much slower ``ufunc.reduceat``/``ufunc.at`` paths.
    """
    ends = np.cumsum(lengths) + base_bit
    offsets = ends - lengths
    word_idx = offsets >> 6
    # Trailing zero-length codes sit at offset == total bits, which lands
    # one word past the end when total is a multiple of 64.  They carry no
    # bits, so clamping keeps indexing valid (and word_idx monotonic).
    np.minimum(word_idx, np.int64(words.size - 1), out=word_idx)
    bit_end = (offsets & 63) + lengths  # <= 63 + 64
    fits = bit_end <= 64
    shift = np.where(fits, 64 - bit_end, bit_end - 64)
    np.minimum(shift, 63, out=shift)  # len==0 at bit 0: harmless 0 << 63
    ushift = shift.astype(np.uint64)
    w1 = np.where(fits, codes << ushift, codes >> ushift)
    csum = np.cumsum(w1)
    starts = np.flatnonzero(np.diff(word_idx, prepend=np.int64(-1)))
    seg_ends = np.append(starts[1:] - 1, w1.size - 1)
    seg = csum[seg_ends]
    seg[1:] -= csum[starts[1:] - 1]
    words[word_idx[starts]] |= seg
    spill = np.flatnonzero(~fits)
    if spill.size:
        # Spill words are strictly increasing (a code that crosses a word
        # boundary pushes the next code past it), so plain |= is safe.
        words[word_idx[spill] + 1] |= codes[spill] << (
            np.uint64(128) - bit_end[spill].astype(np.uint64)
        )


def pack_codes(codes: np.ndarray, lengths: np.ndarray) -> bytes:
    """Pack per-symbol variable-length codes into a contiguous bit string.

    Parameters
    ----------
    codes:
        Unsigned integer code values, one per symbol, right-aligned.
    lengths:
        Bit length of each code; must satisfy ``0 <= length <= 57``.  A
        zero-length entry contributes no bits (the multi-stream Huffman
        framer uses them as byte-alignment placeholders).

    The packer works on cumulative bit offsets: adjacent codes are first
    merged pairwise while the widest merged code still fits 64 bits
    (Huffman codebooks are <= 16 bits, so typical inputs shrink 4x), then
    every merged code is ORed into a 64-bit word array at its cumulative
    offset in one vectorized pass (:func:`_place_codes`).  Input is
    processed in :data:`PACK_CHUNK`-symbol chunks so transient memory is
    bounded regardless of array size.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.size == 0:
        return b""
    if int(lengths.min()) < 0:
        raise ValueError("code lengths must be non-negative")
    max_len = int(lengths.max())
    if max_len > 57:
        raise ValueError("pack_codes supports code lengths up to 57 bits")
    total = int(lengths.sum())
    if total == 0:
        return b""
    words = np.zeros((total + 63) >> 6, dtype=np.uint64)
    base_bit = 0
    for i in range(0, codes.size, PACK_CHUNK):
        chunk_codes = codes[i : i + PACK_CHUNK]
        chunk_lens = lengths[i : i + PACK_CHUNK]
        ulen = chunk_lens.astype(np.uint64)
        masked = chunk_codes & ((np.uint64(1) << ulen) - np.uint64(1))
        chunk_bits = int(chunk_lens.sum())
        merged_max = max_len
        while merged_max <= 32 and masked.size > 1:
            masked, chunk_lens = _merge_pairs(masked, chunk_lens)
            merged_max *= 2
        _place_codes(words, masked, chunk_lens, base_bit)
        base_bit += chunk_bits
    return words.astype(">u8").tobytes()[: (total + 7) >> 3]
