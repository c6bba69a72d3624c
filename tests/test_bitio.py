"""Tests for the bit writer, varints, zigzag, and vectorized code packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DecompressionError
from repro.sz.bitio import (
    BitWriter,
    clz64,
    decode_varints,
    encode_varints,
    pack_codes,
    zigzag_decode,
    zigzag_encode,
)


class TestBitStream:
    def test_simple_fields(self):
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0xFFFF, 16)
        w.write(0, 5)
        # 101 11111 | 11111111 | 111 00000
        assert w.getvalue() == b"\xbf\xff\xe0"

    def test_wide_field(self):
        w = BitWriter()
        w.write(2**63 + 12345, 64)
        assert w.getvalue() == (2**63 + 12345).to_bytes(8, "big")

    def test_bit_length_property(self):
        w = BitWriter()
        w.write(3, 2)
        w.write(1, 9)
        assert w.bit_length == 11

    def test_negative_nbits_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(1, -1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 33)),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip(self, fields):
        """The stream is the fields' bits, MSB first, zero-padded to a
        whole byte."""
        w = BitWriter()
        expected = 0
        for value, nbits in fields:
            w.write(value, nbits)
            expected = (expected << nbits) | (value & ((1 << nbits) - 1))
        total = sum(nbits for _, nbits in fields)
        padded = -total % 8
        assert w.getvalue() == (expected << padded).to_bytes(
            (total + padded) // 8, "big"
        )


class TestZigzag:
    def test_small_values(self):
        v = np.array([0, -1, 1, -2, 2], dtype=np.int64)
        assert np.array_equal(zigzag_encode(v), [0, 1, 2, 3, 4])

    def test_round_trip_extremes(self):
        v = np.array([0, 2**62, -(2**62), 17, -17], dtype=np.int64)
        assert np.array_equal(zigzag_decode(zigzag_encode(v)), v)

    @given(st.lists(st.integers(-(2**62), 2**62), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip(self, values):
        v = np.array(values, dtype=np.int64)
        assert np.array_equal(zigzag_decode(zigzag_encode(v)), v)


class TestVarints:
    def test_known_encoding(self):
        # 300 = 0b1_0101100 -> 0xAC 0x02
        assert encode_varints(np.array([300], dtype=np.uint64)) == b"\xac\x02"

    def test_empty(self):
        assert encode_varints(np.empty(0, dtype=np.uint64)) == b""
        assert decode_varints(b"", 0).size == 0

    def test_round_trip_mixed_sizes(self):
        v = np.array([0, 1, 127, 128, 2**32, 2**63 - 1], dtype=np.uint64)
        assert np.array_equal(decode_varints(encode_varints(v), v.size), v)

    def test_truncation_detected(self):
        blob = encode_varints(np.array([2**40], dtype=np.uint64))
        with pytest.raises(DecompressionError):
            decode_varints(blob[:-1], 1)

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip(self, values):
        v = np.array(values, dtype=np.uint64)
        assert np.array_equal(decode_varints(encode_varints(v), v.size), v)


class TestClz64:
    def test_known_values(self):
        x = np.array([0, 1, 2, 255, 2**63], dtype=np.uint64)
        assert np.array_equal(clz64(x), [64, 63, 62, 56, 0])

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_bit_length(self, value):
        expected = 64 - value.bit_length()
        assert clz64(np.array([value], dtype=np.uint64))[0] == expected


class TestPackCodes:
    def test_empty(self):
        assert pack_codes(np.empty(0, np.uint64), np.empty(0, np.int64)) == b""

    def test_against_bitwriter(self):
        rng = np.random.default_rng(3)
        lengths = rng.integers(1, 24, 200)
        codes = np.array(
            [rng.integers(0, 2**int(n)) for n in lengths], dtype=np.uint64
        )
        packed = pack_codes(codes, lengths)
        w = BitWriter()
        for c, n in zip(codes, lengths):
            w.write(int(c), int(n))
        assert packed == w.getvalue()

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([1], np.uint64), np.array([60]))


class TestClz64Boundaries:
    """Exhaustive boundary coverage for the frexp-based implementation.

    Float64 rounding can push values just below a power of two up to
    exactly ``2**k``; every such edge (including the extremes 0, 1,
    ``2**63`` and ``2**64 - 1``) must still produce an exact count.
    """

    def test_required_extremes(self):
        x = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        assert np.array_equal(clz64(x), [64, 63, 0, 0])

    def test_all_powers_of_two_and_neighbours(self):
        values, expected = [], []
        for k in range(64):
            p = 1 << k
            for v in (p - 1, p, p + 1):
                if 0 < v < 2**64:
                    values.append(v)
                    expected.append(64 - v.bit_length())
        got = clz64(np.array(values, dtype=np.uint64))
        assert np.array_equal(got, expected)

    def test_all_ones_prefixes(self):
        # 0b1, 0b11, 0b111, ... — the worst case for mantissa rounding.
        values = [(1 << k) - 1 for k in range(1, 65)]
        got = clz64(np.array(values, dtype=np.uint64))
        assert np.array_equal(got, [64 - v.bit_length() for v in values])

    def test_scalar_and_multidim_inputs(self):
        assert clz64(np.uint64(255)) == 56
        arr = np.array([[1, 2], [4, 8]], dtype=np.uint64)
        assert np.array_equal(clz64(arr), [[63, 62], [61, 60]])


class TestPackCodesChunked:
    def test_crosses_chunk_boundary(self):
        from repro.sz.bitio import PACK_CHUNK

        rng = np.random.default_rng(17)
        n = PACK_CHUNK * 2 + 1234
        lengths = rng.integers(1, 17, n)
        codes = (
            rng.integers(0, 2**16, n).astype(np.uint64)
            & ((np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1))
        )
        packed = pack_codes(codes, lengths)
        # Reference: pack each half separately at the bit level.
        w = BitWriter()
        for c, l in zip(codes[:300].tolist(), lengths[:300].tolist()):
            w.write(c, l)
        prefix = w.getvalue()[:-1]  # drop the possibly-padded final byte
        assert packed[: len(prefix)] == prefix
        total_bits = int(lengths.sum())
        assert len(packed) == (total_bits + 7) // 8

    def test_chunk_local_widths(self):
        from repro.sz.bitio import PACK_CHUNK

        # First chunk all 1-bit codes, second chunk wide codes: the chunked
        # expansion must not leak one chunk's max_len into the other.
        lengths = np.concatenate(
            [np.ones(PACK_CHUNK, dtype=np.int64), np.full(10, 57)]
        )
        codes = np.concatenate(
            [np.ones(PACK_CHUNK, dtype=np.uint64), np.full(10, (1 << 57) - 1, np.uint64)]
        )
        packed = pack_codes(codes, lengths)
        assert len(packed) == (PACK_CHUNK + 10 * 57 + 7) // 8
        assert packed[: PACK_CHUNK // 8] == b"\xff" * (PACK_CHUNK // 8)

    def test_zero_length_entries_contribute_nothing(self):
        codes = np.array([0b101, 0, 0b11, 0], dtype=np.uint64)
        lengths = np.array([3, 0, 2, 0], dtype=np.int64)
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0b11, 2)
        assert pack_codes(codes, lengths) == w.getvalue()

    def test_all_zero_lengths(self):
        assert pack_codes(np.zeros(5, np.uint64), np.zeros(5, np.int64)) == b""

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([1], np.uint64), np.array([-1]))
