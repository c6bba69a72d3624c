"""Tests for the canonical Huffman codec."""

import functools
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DecompressionError
from repro.serde import BlobReader, BlobWriter
from repro.sz.huffman import (
    MAX_CODE_LENGTH,
    HuffmanCodec,
    _DecodeTable,
    _decode_stream,
    canonical_codes,
    code_lengths,
    decode_blobs,
)


class TestCodeLengths:
    def test_uniform_counts_balanced(self):
        lengths = code_lengths(np.full(8, 10))
        assert (lengths == 3).all()

    def test_skewed_counts_short_code_for_frequent(self):
        lengths = code_lengths(np.array([1000, 10, 10, 10]))
        assert lengths[0] == lengths.min()

    def test_single_symbol(self):
        assert code_lengths(np.array([42]))[0] == 1

    def test_length_limit_enforced(self):
        # Fibonacci-like counts force a degenerate deep tree.
        counts = np.array([1] + [int(1.6**k) + 1 for k in range(40)])
        lengths = code_lengths(counts)
        assert lengths.max() <= MAX_CODE_LENGTH

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            code_lengths(np.array([3, 0, 1]))

    def test_kraft_inequality(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(1, 1000, 50)
        lengths = code_lengths(counts)
        assert np.sum(2.0 ** -lengths) <= 1.0 + 1e-12


class TestCanonicalCodes:
    def test_prefix_free(self):
        lengths = code_lengths(np.array([50, 20, 20, 5, 3, 2]))
        codes = canonical_codes(lengths)
        entries = sorted(
            (f"{int(c):0{int(n)}b}") for c, n in zip(codes, lengths)
        )
        for a, b in zip(entries, entries[1:]):
            assert not b.startswith(a), f"{a} prefixes {b}"

    def test_deterministic_from_lengths(self):
        lengths = np.array([2, 2, 2, 3, 3])
        assert np.array_equal(canonical_codes(lengths), canonical_codes(lengths))


class TestHuffmanRoundTrip:
    @pytest.mark.parametrize(
        "arr",
        [
            np.zeros(1000, dtype=np.int64),
            np.array([5]),
            np.arange(-300, 300),
            np.random.default_rng(1).integers(-4, 4, 20000),
            np.random.default_rng(2).integers(0, 30000, 3000),
        ],
    )
    def test_round_trip(self, arr):
        blob = HuffmanCodec.encode(arr)
        assert np.array_equal(HuffmanCodec.decode(blob), arr)

    def test_empty_array(self):
        blob = HuffmanCodec.encode(np.empty(0, dtype=np.int64))
        assert HuffmanCodec.decode(blob).size == 0

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            HuffmanCodec.encode(np.ones(4, dtype=np.float64))

    def test_compresses_skewed_data(self):
        rng = np.random.default_rng(3)
        # 95% zeros: should approach ~0.3-0.5 bits/symbol before framing
        arr = np.where(rng.random(50000) < 0.95, 0, rng.integers(-5, 5, 50000))
        blob = HuffmanCodec.encode(arr)
        assert len(blob) < 50000 * 0.25  # < 2 bits/symbol incl. overhead

    def test_shape_is_flattened(self):
        arr = np.arange(12).reshape(3, 4)
        out = HuffmanCodec.decode(HuffmanCodec.encode(arr))
        assert np.array_equal(out, arr.ravel())

    @given(
        st.lists(st.integers(-(2**31), 2**31), min_size=0, max_size=300)
    )
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip(self, values):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(HuffmanCodec.decode(HuffmanCodec.encode(arr)), arr)


def _legacy_v1_blob(arr: np.ndarray) -> bytes:
    """Build a pre-"dt" v1 blob the way the original encoder serialized it."""
    from repro.serde import BlobWriter
    from repro.sz.bitio import pack_codes
    from repro.sz.huffman import _compact_symbols

    writer = BlobWriter()
    flat = arr.astype(np.int64).ravel()
    if flat.size == 0:
        writer.write_json({"n": 0})
        return writer.getvalue()
    symbols, inverse = np.unique(flat, return_inverse=True)
    counts = np.bincount(inverse, minlength=symbols.size)
    lengths = code_lengths(counts)
    codes = canonical_codes(lengths)
    writer.write_json({"n": int(flat.size), "dense": None})
    writer.write_array(_compact_symbols(symbols))
    writer.write_array(lengths.astype(np.uint8))
    writer.write_bytes(pack_codes(codes[inverse], lengths[inverse]))
    return writer.getvalue()


def _deep_codebook(depth: int):
    """A complete canonical codebook with max code length ``depth``:
    lengths [1, 2, ..., depth-1, depth, depth] satisfy Kraft exactly."""
    lengths = np.array(list(range(1, depth)) + [depth, depth], dtype=np.int64)
    symbols = np.arange(lengths.size, dtype=np.int64)
    return symbols, lengths


def _hand_rolled_blob(
    symbols, lengths, payload_syms, version=1, n_streams=None, sizes=None,
    payload=None,
):
    """Assemble a Huffman blob from explicit parts (for corruption tests)."""
    from repro.serde import BlobWriter
    from repro.sz.bitio import pack_codes
    from repro.sz.huffman import _compact_symbols, _compact_unsigned, _h2_payload

    codes = canonical_codes(lengths)
    lut = {int(s): i for i, s in enumerate(symbols)}
    idx = np.array([lut[int(v)] for v in payload_syms], dtype=np.int64)
    writer = BlobWriter()
    meta = {"n": int(len(payload_syms)), "dense": None, "dt": "<i8"}
    if version == 2:
        meta["v"] = 2
        meta["ns"] = int(n_streams)
    writer.write_json(meta)
    writer.write_array(_compact_symbols(np.asarray(symbols, dtype=np.int64)))
    writer.write_array(np.asarray(lengths).astype(np.uint8))
    if version == 2:
        if payload is None:
            payload, auto_sizes = _h2_payload(codes[idx], lengths[idx], n_streams)
            if sizes is None:
                sizes = auto_sizes
        writer.write_array(_compact_unsigned(np.asarray(sizes)))
        writer.write_bytes(payload)
    else:
        if payload is None:
            payload = pack_codes(codes[idx], lengths[idx])
        writer.write_bytes(payload)
    return writer.getvalue()


def _decode_streams(payload, sizes, n, n_streams, symbols, lengths):
    """The single-blob H2 decoder the batched one replaced: the oracle.

    All N stream cursors of one blob advance together: each round
    gathers one 64-bit window per stream from a sliding-word matrix,
    resolves them with a canonical searchsorted lookup (built here from
    the codebook, independently of the decoder's packed tables) and
    writes the symbols of round ``r`` to ``out[r*N : r*N + N]``.
    """
    if n_streams < 1:
        raise DecompressionError(f"corrupt H2 stream count {n_streams}")
    max_len = int(lengths.max())
    order = np.lexsort((np.arange(lengths.size), lengths))
    bounds = canonical_codes(lengths)[order] << (
        max_len - lengths[order]
    ).astype(np.uint64)
    sorted_sym, sorted_len = symbols[order], lengths[order]
    sizes = np.asarray(sizes).astype(np.int64)
    if sizes.size != n_streams or int(sizes.sum()) != len(payload):
        raise DecompressionError("H2 stream sizes disagree with payload")
    width = int(sizes.max()) + 16
    mat = np.zeros((n_streams, width), dtype=np.uint8)
    raw = np.frombuffer(payload, dtype=np.uint8)
    if raw.size:
        row_idx = np.repeat(np.arange(n_streams), sizes)
        offsets = np.cumsum(sizes) - sizes
        col_idx = np.arange(raw.size, dtype=np.int64)
        col_idx -= np.repeat(offsets, sizes)
        mat[row_idx, col_idx] = raw
    word_cols = width - 7
    words = np.zeros((n_streams, word_cols), dtype=np.uint64)
    for j in range(8):
        words <<= np.uint64(8)
        words |= mat[:, j : j + word_cols]
    flat_words = words.ravel()
    row_base = np.arange(n_streams, dtype=np.int64) * word_cols
    need = np.uint64(64 - max_len)
    mask = np.uint64((1 << max_len) - 1)
    out = np.empty(n, dtype=np.int64)
    cursors = np.zeros(n_streams, dtype=np.int64)
    full_rounds, remainder = divmod(n, n_streams)
    rounds = full_rounds + (1 if remainder else 0)
    for r in range(rounds):
        active = n_streams if r < full_rounds else remainder
        cur = cursors[:active]
        byte_idx = np.minimum(cur >> 3, word_cols - 1)
        window = (
            flat_words[row_base[:active] + byte_idx]
            >> (need - (cur & 7).astype(np.uint64))
        ) & mask
        idx = np.searchsorted(bounds, window, side="right") - 1
        out[r * n_streams : r * n_streams + active] = sorted_sym[idx]
        cur += sorted_len[idx]
    if (cursors > sizes * 8).any():
        raise DecompressionError("Huffman stream exhausted before count")
    return out


def _oracle_decode(blob: bytes) -> np.ndarray:
    """Decode one blob the way the single-blob decoder did."""
    reader = BlobReader(blob)
    meta = reader.read_json()
    n = int(meta["n"])
    dtype = np.dtype(str(meta.get("dt", "<i8")))
    if n == 0:
        return np.empty(0, dtype=dtype)
    if meta.get("dense") is None:
        symbols = reader.read_array().astype(np.int64)
        lengths = reader.read_array().astype(np.int64)
    else:
        dense = reader.read_array().astype(np.int64)
        present = np.nonzero(dense)[0]
        symbols, lengths = present + int(meta["dense"]), dense[present]
    if symbols.size == 1:
        return np.full(n, symbols[0]).astype(dtype)
    if int(meta.get("v", 1)) == 2:
        sizes = reader.read_array()
        out = _decode_streams(
            reader.read_bytes(), sizes, n, int(meta["ns"]), symbols, lengths
        )
    else:
        table = _DecodeTable(symbols, lengths)
        out = _decode_stream(reader.read_bytes(), n, table)
    return out.astype(dtype)


@functools.lru_cache(maxsize=1)
def _valid_blobs() -> tuple[bytes, ...]:
    """Valid blobs of every kind to surround a blob under test."""
    rng = np.random.default_rng(99)
    return tuple(
        HuffmanCodec.encode(rng.integers(-40, 40, n), streams=s)
        for n, s in ((9000, None), (5000, 16), (300, None), (20000, 64))
    )


def _mid_batch(blob: bytes) -> np.ndarray:
    """Decode ``blob`` in the middle of a batch of valid blobs; returns
    its symbols once the others are checked against the oracle."""
    valid = list(_valid_blobs())
    out = decode_blobs(valid[:2] + [blob] + valid[2:])
    for got, want in zip(out[:2] + out[3:], valid):
        assert np.array_equal(got, _oracle_decode(want))
    return out[2]


def _assert_rejected(blob: bytes, match: str | None = None) -> None:
    """``blob`` raises DecompressionError alone and in mid-batch."""
    with pytest.raises(DecompressionError, match=match):
        HuffmanCodec.decode(blob)
    with pytest.raises(DecompressionError, match=match):
        _mid_batch(blob)


class TestH2RoundTrip:
    DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16)

    @pytest.mark.parametrize("streams", [2, 3, 8, 17, 64, 500])
    def test_forced_streams_round_trip(self, streams):
        rng = np.random.default_rng(streams)
        arr = rng.integers(-50, 50, 4321)
        blob = HuffmanCodec.encode(arr, streams=streams)
        assert np.array_equal(HuffmanCodec.decode(blob), arr)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dtype_preserved(self, dtype):
        rng = np.random.default_rng(7)
        arr = rng.integers(0, 100, 9001).astype(dtype)
        out = HuffmanCodec.decode(HuffmanCodec.encode(arr, streams=16))
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, arr)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 4095, 4096, 4097])
    def test_trailing_partial_rounds(self, n):
        # Every remainder class around the stream count boundary.
        rng = np.random.default_rng(n)
        arr = rng.integers(0, 9, n)
        blob = HuffmanCodec.encode(arr, streams=8)
        assert np.array_equal(HuffmanCodec.decode(blob), arr)

    def test_empty_with_forced_streams(self):
        blob = HuffmanCodec.encode(np.empty(0, dtype=np.int32), streams=8)
        out = HuffmanCodec.decode(blob)
        assert out.size == 0 and out.dtype == np.int32

    def test_single_symbol_alphabet(self):
        arr = np.full(10007, -3, dtype=np.int64)
        blob = HuffmanCodec.encode(arr, streams=32)
        assert np.array_equal(HuffmanCodec.decode(blob), arr)

    def test_auto_path_small_stays_legacy(self):
        # 1023 symbols is the largest blob the encoder keeps single-stream.
        for n in (100, 1023):
            arr = np.arange(n)
            blob = HuffmanCodec.encode(arr)
            assert blob == HuffmanCodec.encode(arr, streams=1)

    def test_auto_path_large_uses_h2(self):
        # 1024 symbols is the smallest H2 blob; 3137 is one copper-b
        # buffer head.
        for n, n_streams in ((1024, 8), (3137, 12), (50000, 195)):
            arr = np.random.default_rng(11).integers(0, 64, n)
            blob = HuffmanCodec.encode(arr)
            meta = BlobReader(blob).read_json()
            assert (meta["v"], meta["ns"]) == (2, n_streams)
            assert blob != HuffmanCodec.encode(arr, streams=1)
            assert np.array_equal(HuffmanCodec.decode(blob), arr)

    def test_dense_codebook_h2(self):
        rng = np.random.default_rng(13)
        arr = rng.integers(0, 1024, 20000)
        blob = HuffmanCodec.encode(arr, alphabet_hint=1025, streams=64)
        assert np.array_equal(HuffmanCodec.decode(blob), arr)

    @given(
        st.lists(st.integers(-(2**31), 2**31), min_size=0, max_size=300),
        st.integers(2, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip_h2(self, values, streams):
        arr = np.array(values, dtype=np.int64)
        blob = HuffmanCodec.encode(arr, streams=streams)
        assert np.array_equal(HuffmanCodec.decode(blob), arr)


class TestBlobCompat:
    def test_v1_pre_dt_blob_decodes_as_int64(self):
        rng = np.random.default_rng(5)
        arr = rng.integers(-20, 20, 5000)
        out = HuffmanCodec.decode(_legacy_v1_blob(arr))
        assert out.dtype == np.int64
        assert np.array_equal(out, arr)

    def test_v1_pre_dt_empty(self):
        out = HuffmanCodec.decode(_legacy_v1_blob(np.empty(0, dtype=np.int64)))
        assert out.size == 0 and out.dtype == np.int64

    def test_all_formats_decode_identically(self):
        rng = np.random.default_rng(6)
        arr = rng.geometric(0.2, 30000).astype(np.int64)
        v1 = HuffmanCodec.decode(_legacy_v1_blob(arr))
        single = HuffmanCodec.decode(HuffmanCodec.encode(arr, streams=1))
        h2 = HuffmanCodec.decode(HuffmanCodec.encode(arr, streams=128))
        assert np.array_equal(v1, arr)
        assert np.array_equal(single, arr)
        assert np.array_equal(h2, arr)

    def test_streams_1_matches_historical_bytes(self):
        # The legacy single-stream format is frozen: no "v"/"ns" keys, same
        # section bytes as the pre-H2 encoder produced.
        arr = np.arange(-100, 100, dtype=np.int64)
        blob = HuffmanCodec.encode(arr, streams=1)
        from repro.serde import BlobReader

        meta = BlobReader(blob).read_json()
        assert "v" not in meta and "ns" not in meta


class TestH2Corruption:
    def _arr(self):
        return np.random.default_rng(9).integers(0, 30, 10000)

    def test_truncated_payload_raises(self):
        symbols, lengths = np.arange(4), np.array([2, 2, 2, 2])
        blob = _hand_rolled_blob(
            symbols, lengths, self._arr() % 4, version=2, n_streams=8
        )
        from repro.serde import BlobReader
        from repro.sz.huffman import _h2_payload

        codes = canonical_codes(lengths)
        syms = self._arr() % 4
        payload, sizes = _h2_payload(codes[syms], np.asarray(lengths)[syms], 8)
        # Claim the right sizes but hand over a short payload.
        bad = _hand_rolled_blob(
            symbols, lengths, syms, version=2, n_streams=8,
            sizes=sizes, payload=payload[:-10],
        )
        _assert_rejected(bad)

    def test_undersized_streams_raise_exhausted(self):
        # Sizes consistent with the (short) payload, but too few bits for n
        # symbols: the cursor check must reject it, not return garbage.
        symbols, lengths = np.arange(4), np.array([2, 2, 2, 2])
        syms = self._arr() % 4
        from repro.sz.huffman import _h2_payload

        codes = canonical_codes(lengths)
        payload, sizes = _h2_payload(codes[syms], np.asarray(lengths)[syms], 8)
        cut = sizes.copy()
        cut[0] -= 5  # steal 5 bytes from stream 0
        short = payload[: int(cut[0])] + payload[int(sizes[0]) :]
        bad = _hand_rolled_blob(
            symbols, lengths, syms, version=2, n_streams=8,
            sizes=cut, payload=short,
        )
        _assert_rejected(bad)

    def test_bad_stream_count_raises(self):
        symbols, lengths = np.arange(4), np.array([2, 2, 2, 2])
        syms = self._arr() % 4
        from repro.sz.huffman import _h2_payload

        codes = canonical_codes(lengths)
        payload, sizes = _h2_payload(codes[syms], np.asarray(lengths)[syms], 8)
        for ns in (0, -1, 100000):
            bad = _hand_rolled_blob(
                symbols, lengths, syms, version=2, n_streams=ns,
                sizes=sizes, payload=payload,
            )
            _assert_rejected(bad)

    def test_size_table_length_mismatch_raises(self):
        symbols, lengths = np.arange(4), np.array([2, 2, 2, 2])
        syms = self._arr() % 4
        from repro.sz.huffman import _h2_payload

        codes = canonical_codes(lengths)
        payload, sizes = _h2_payload(codes[syms], np.asarray(lengths)[syms], 8)
        bad = _hand_rolled_blob(
            symbols, lengths, syms, version=2, n_streams=8,
            sizes=sizes[:-1], payload=payload[: int(sizes[:-1].sum())],
        )
        _assert_rejected(bad)

    def test_unsupported_version_raises(self):
        from repro.serde import BlobWriter

        writer = BlobWriter()
        writer.write_json({"n": 4, "dense": None, "dt": "<i8", "v": 9})
        _assert_rejected(writer.getvalue())

    def test_incomplete_codebook_raises(self):
        # Lengths [2, 2, 2] leave a Kraft hole; both paths must refuse.
        for version, ns in ((1, None), (2, 4)):
            bad = _hand_rolled_blob(
                np.arange(3), np.array([2, 2, 2]), np.zeros(50, dtype=np.int64),
                version=version, n_streams=ns,
            )
            _assert_rejected(bad)

    def test_oversubscribed_codebook_raises(self):
        # Kraft surplus (overlapping spans) is corruption too.
        bad = _hand_rolled_blob(
            np.arange(3), np.array([1, 1, 1]), np.zeros(10, dtype=np.int64),
        )
        _assert_rejected(bad)


class TestDeepCodebookCap:
    """The decoder takes codes of 1 to MAX_CODE_LENGTH bits, as the
    encoder writes them; a deeper codebook is rejected before any table
    is built."""

    @staticmethod
    def _blob(depth: int, version: int, n: int, seed: int):
        """(values, blob): mostly short codes with a few deep ones."""
        symbols, lengths = _deep_codebook(depth)
        rng = np.random.default_rng(seed)
        syms = np.where(rng.random(n) < 0.9, 0, rng.integers(0, symbols.size, n))
        blob = _hand_rolled_blob(
            symbols, lengths, syms, version=version,
            n_streams=16 if version == 2 else None,
        )
        return syms, blob

    @pytest.mark.parametrize("depth", [17, 20, 40, 57])
    def test_deep_legacy_blob_rejected(self, depth):
        _, blob = self._blob(depth, 1, 2000, depth)
        _assert_rejected(blob, match=f"length {depth} exceeds the 16-bit")

    @pytest.mark.parametrize("depth", [17, 20, 40, 57])
    def test_deep_h2_blob_rejected(self, depth):
        _, blob = self._blob(depth, 2, 5000, depth + 1)
        _assert_rejected(blob, match=f"length {depth} exceeds the 16-bit")

    @pytest.mark.parametrize("version", [1, 2], ids=["v1", "h2"])
    def test_encoder_cap_decodes(self, version):
        syms, blob = self._blob(MAX_CODE_LENGTH, version, 5000, version)
        assert np.array_equal(HuffmanCodec.decode(blob), syms)
        assert np.array_equal(_mid_batch(blob), syms)

    def test_over_budget_depth_rejected(self):
        symbols, lengths = _deep_codebook(58)
        # Assemble the codebook sections only; payload content irrelevant.
        from repro.serde import BlobWriter
        from repro.sz.huffman import _compact_symbols

        writer = BlobWriter()
        writer.write_json({"n": 10, "dense": None, "dt": "<i8"})
        writer.write_array(_compact_symbols(symbols))
        writer.write_array(lengths.astype(np.uint8))
        writer.write_bytes(b"\x00" * 80)
        _assert_rejected(writer.getvalue())


#: One blob of a property-test batch: (symbols, seed, alphabet span,
#: forced H2 stream count or None for auto, dense hint, dtype).  The
#: sizes cover empty, one-symbol, v1-sized and H2-sized arrays, and both
#: sides of the auto H2 threshold.
_BLOB_SPECS = st.tuples(
    st.sampled_from([0, 1, 7, 300, 1023, 1024, 4095, 4096, 5000, 12000]),
    st.integers(0, 2**16),
    st.sampled_from([1, 2, 5, 60, 1000]),
    st.one_of(st.none(), st.integers(2, 64)),
    st.booleans(),
    st.sampled_from(TestH2RoundTrip.DTYPES),
)


def _spec_blob(size, seed, span, streams, dense, dtype) -> bytes:
    rng = np.random.default_rng(seed)
    span = min(span, int(np.iinfo(dtype).max))
    values = rng.integers(0, span, size)
    values[rng.random(size) < 0.6] = 0  # skewed: one short code
    hint = span + 1 if dense else None
    return HuffmanCodec.encode(
        values.astype(dtype), alphabet_hint=hint, streams=streams
    )


class TestBatchedDecode:
    @given(st.lists(_BLOB_SPECS, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_oracle(self, specs):
        blobs = [_spec_blob(*spec) for spec in specs]
        for blob, got in zip(blobs, decode_blobs(blobs)):
            want = _oracle_decode(blob)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_empty_batch(self):
        assert decode_blobs([]) == []

    def test_rounds_are_the_longest_blob(self):
        from repro.telemetry import recording

        rng = np.random.default_rng(17)
        arrays = [rng.integers(0, 30, n) for n in (5000, 9000, 20000)]
        blobs = [HuffmanCodec.encode(a, streams=8) for a in arrays]
        with recording() as rec:
            out = decode_blobs(blobs)
        snap = rec.snapshot()
        for got, want in zip(out, arrays):
            assert np.array_equal(got, want)
        assert snap["timers"]["sz.huffman.decode"]["count"] == 1
        counters = snap["counters"]
        assert counters["sz.huffman.decode.rounds"] == 20000 // 8
        assert counters["sz.huffman.decode.h2_blobs"] == 3
        assert "sz.huffman.decode.v1_blobs" not in counters
        assert counters["sz.huffman.decode.streams"] == 24
        assert counters["sz.huffman.decode.symbols"] == 34000

    def test_walked_blobs_are_counted(self):
        """``v1_blobs`` counts the blobs the scalar walker decodes: not
        the H2 ones, nor a one-symbol alphabet, which needs no bits."""
        from repro.telemetry import recording

        rng = np.random.default_rng(19)
        arrays = [
            rng.integers(0, 30, 1023),
            rng.integers(0, 30, 1024),
            np.full(2000, 4),
            rng.integers(0, 30, 5000),
        ]
        blobs = [HuffmanCodec.encode(a) for a in arrays[:3]]
        blobs.append(HuffmanCodec.encode(arrays[3], streams=1))
        with recording() as rec:
            out = decode_blobs(blobs)
        for got, want in zip(out, arrays):
            assert np.array_equal(got, want)
        counters = rec.snapshot()["counters"]
        assert counters["sz.huffman.decode.v1_blobs"] == 2
        assert counters["sz.huffman.decode.h2_blobs"] == 1


def _rejected_within(blob: bytes, seconds: float = 1.0) -> str:
    """Decode ``blob`` on a worker thread; ``"rejected"`` when it raised
    DecompressionError within ``seconds``."""
    outcome = ["timeout"]

    def run():
        try:
            HuffmanCodec.decode(blob)
            outcome[0] = "decoded"
        except DecompressionError:
            outcome[0] = "rejected"
        except BaseException as exc:  # MemoryError and the like
            outcome[0] = type(exc).__name__

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    return outcome[0]


def _claiming(n, symbols, lengths, payload: bytes, n_streams=None) -> bytes:
    """A blob with a real codebook and payload whose header claims ``n``."""
    writer = BlobWriter()
    meta = {"n": n, "dense": None, "dt": "<i8"}
    if n_streams is not None:
        meta.update(v=2, ns=n_streams)
    writer.write_json(meta)
    writer.write_array(np.asarray(symbols, dtype=np.int8))
    writer.write_array(np.asarray(lengths, dtype=np.uint8))
    if n_streams is not None:
        sizes = np.full(n_streams, len(payload) // n_streams, dtype=np.uint8)
        writer.write_array(sizes)
    writer.write_bytes(payload)
    return writer.getvalue()


#: Blobs whose symbol count no payload of theirs can carry: each must be
#: rejected before anything is sized or looped by the count.
HOSTILE_COUNTS = {
    "single-symbol-3e8": _claiming(3 * 10**8, [5], [1], bytes(100)),
    "single-symbol-1e12": _claiming(10**12, [5], [1], bytes(100)),
    "h2-8-streams-3e8": _claiming(
        3 * 10**8, [0, 1, 2, 3], [2, 2, 2, 2], bytes(160), n_streams=8
    ),
    "v1-3e8": _claiming(3 * 10**8, [0, 1, 2, 3], [2, 2, 2, 2], bytes(160)),
    "negative": _claiming(-5, [0, 1], [1, 1], bytes(16)),
}


class TestHostileCounts:
    @pytest.mark.parametrize("case", sorted(HOSTILE_COUNTS))
    def test_rejected_within_a_second(self, case):
        assert _rejected_within(HOSTILE_COUNTS[case]) == "rejected"

    def test_rejected_mid_batch(self):
        _assert_rejected(HOSTILE_COUNTS["h2-8-streams-3e8"])

    @pytest.mark.parametrize("version", [1, 2], ids=["v1", "h2"])
    def test_many_deep_codebooks_stay_bounded(self, version):
        """200 small blobs, each with its own Kraft-complete 16-bit
        codebook (a 2**16-entry table), decode in one batch to what they
        decode to one by one, without holding every table at once."""
        symbols, lengths = _deep_codebook(MAX_CODE_LENGTH)
        rng = np.random.default_rng(23)
        expected, blobs = [], []
        for _ in range(200):
            own = rng.permutation(lengths)
            short = symbols[np.argmin(own)]
            syms = np.where(
                rng.random(64) < 0.8, short, rng.integers(0, symbols.size, 64)
            )
            expected.append(syms)
            blobs.append(_hand_rolled_blob(
                symbols, own, syms, version=version,
                n_streams=8 if version == 2 else None,
            ))
        tracemalloc.start()
        try:
            out = decode_blobs(blobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        for got, blob, want in zip(out, blobs, expected):
            assert np.array_equal(got, HuffmanCodec.decode(blob))
            assert np.array_equal(got, want)

    def test_stream_count_beyond_its_own_bits(self):
        # The payload as a whole could carry n symbols, but stream 0
        # claims more than its own bytes can: 80 symbols in 8 bytes
        # while stream 1 holds the spare bytes.
        symbols, lengths = np.arange(4), np.array([2, 2, 2, 2])
        writer = BlobWriter()
        writer.write_json(
            {"n": 160, "dense": None, "dt": "<i8", "v": 2, "ns": 2}
        )
        writer.write_array(symbols.astype(np.int8))
        writer.write_array(lengths.astype(np.uint8))
        writer.write_array(np.array([8, 40], dtype=np.uint8))
        writer.write_bytes(bytes(48))
        _assert_rejected(writer.getvalue())


class TestOneSymbolCodebook:
    """The encoder gives a lone symbol a 1-bit code; a one-symbol
    codebook with any other length is forged and must not decode to
    ``n`` copies of the symbol."""

    FORGED = {
        "v1": _claiming(40, [7], [40], bytes(5)),
        "h2-8-streams": _claiming(40, [7], [40], bytes(8), n_streams=8),
    }

    @pytest.mark.parametrize("case", sorted(FORGED))
    def test_forged_length_rejected(self, case):
        _assert_rejected(self.FORGED[case], match="one-symbol")

    @pytest.mark.parametrize("length", [0, 2, 16])
    def test_any_length_but_one_rejected(self, length):
        _assert_rejected(
            _claiming(40, [7], [length], bytes(5)), match="one-symbol"
        )

    @pytest.mark.parametrize("n", [30, 3000])
    def test_encoder_written_blob_decodes(self, n):
        values = np.full(n, 7, dtype=np.int64)
        blob = HuffmanCodec.encode(values)
        assert np.array_equal(HuffmanCodec.decode(blob), values)
        assert np.array_equal(_mid_batch(blob), values)


class TestCodebookCache:
    def test_different_histograms_do_not_collide(self):
        a = np.array([0] * 100 + [1] * 5 + [2] * 5, dtype=np.int64)
        b = np.array([0] * 5 + [1] * 100 + [2] * 5, dtype=np.int64)
        assert np.array_equal(HuffmanCodec.decode(HuffmanCodec.encode(a)), a)
        assert np.array_equal(HuffmanCodec.decode(HuffmanCodec.encode(b)), b)
