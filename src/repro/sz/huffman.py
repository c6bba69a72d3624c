"""Canonical Huffman coding for integer symbol streams.

This is the entropy-coding stage of the SZ framework (Section III-B of the
paper): quantization codes are Huffman-encoded before the trailing
dictionary coder.  The implementation here is self-contained:

* code lengths come from a standard heap-built Huffman tree over the symbol
  histogram, with an iterative count-halving pass that limits the maximum
  code length to :data:`MAX_CODE_LENGTH` bits (keeping the decode table
  small and the vectorized encoder within its 57-bit budget);
* codes are assigned canonically, so the decoder only needs the per-symbol
  code *lengths* to rebuild the exact codebook;
* encoding is fully vectorized (numpy gather + bit packing);
* decoding is vectorized too: the "H2" blob format splits the symbol array
  round-robin into N independent byte-aligned sub-streams, and the decoder
  runs a round-based numpy state machine — one flat-table (or canonical
  searchsorted) lookup per round advances all N stream cursors at once, so
  an n-symbol payload decodes in ~n/N vectorized rounds instead of n
  Python-loop steps.  Legacy single-stream blobs keep decoding bit-exactly
  through the original scalar table walker.

The encoder codebook (lengths + canonical codes, keyed by a digest of the
symbol histogram) and the decoder lookup structures (keyed by a digest of
the codebook) are memoized in small LRU caches — see
:func:`clear_codebook_caches` and the ``sz.huffman.cache.hit/miss``
telemetry counters.  Reading an archive repeats codebooks; writing one
rarely repeats a histogram, because each buffer's histogram differs.

The public entry point is :class:`HuffmanCodec` with ``encode`` / ``decode``
class methods that produce and consume self-contained byte blobs (codebook
included).
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import threading
from collections import OrderedDict

import numpy as np

from ..exceptions import DecompressionError
from ..serde import BlobReader, BlobWriter
from ..telemetry import get_recorder
from .bitio import pack_codes

#: Hard cap on Huffman code length produced by *this* encoder.  Chosen so
#: the flat decode table is at most 2^16 entries and the vectorized bit
#: packer never sees codes wider than 57 bits.
MAX_CODE_LENGTH = 16

#: Widest code the decoder accepts from a blob.  Matches the
#: :func:`~repro.sz.bitio.pack_codes` budget: a (possibly foreign) blob
#: claiming longer codes cannot have been produced by this format.
MAX_CODE_WIDTH = 57

#: Cap on the flat ``2**max_len`` decode table.  Codebooks deeper than
#: this (possible only in foreign/corrupt blobs — our encoder stops at
#: :data:`MAX_CODE_LENGTH`) decode through the canonical searchsorted
#: path instead, which needs O(alphabet) memory rather than O(2**depth).
FLAT_TABLE_BITS = 16

#: Minimum sub-stream count of an H2 blob (the base fan-out); the encoder
#: scales the count up with the symbol count so large arrays decode in few
#: vectorized rounds.
DEFAULT_STREAMS = 8

#: Upper bound on H2 sub-streams.  Keeps the per-stream length table small
#: relative to the payload and bounds the decoder's state matrices.
MAX_STREAMS = 2048

#: Target symbols per sub-stream when auto-selecting the H2 fan-out.
_SYMBOLS_PER_STREAM = 256

#: Below this many symbols the blob stays in the legacy single-stream
#: format: the scalar decoder is already fast at this size and the H2
#: framing (per-stream length table) would cost more than it saves.
_H2_MIN_SYMBOLS = 4096


def _tree_code_lengths(counts: np.ndarray) -> np.ndarray:
    """Return Huffman code lengths for strictly-positive ``counts``.

    Uses the standard two-queue/heap construction.  For a single-symbol
    alphabet the length is 1 (a degenerate tree still needs one bit so the
    decoder can count symbols).
    """
    n = counts.size
    if n == 1:
        return np.array([1], dtype=np.int64)
    # Heap of (count, tiebreak, node). Leaves are ints; internal nodes are
    # [left, right] lists.  Depth assignment happens in a second pass.
    heap: list[tuple[int, int, object]] = [
        (int(c), i, i) for i, c in enumerate(counts)
    ]
    heapq.heapify(heap)
    tiebreak = n
    while len(heap) > 1:
        c1, _, n1 = heapq.heappop(heap)
        c2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (c1 + c2, tiebreak, [n1, n2]))
        tiebreak += 1
    lengths = np.zeros(n, dtype=np.int64)
    # Iterative DFS to assign depths (recursion would overflow on skewed
    # trees with large alphabets).
    stack: list[tuple[object, int]] = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, list):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            lengths[node] = max(depth, 1)
    return lengths


def code_lengths(counts: np.ndarray, max_length: int = MAX_CODE_LENGTH) -> np.ndarray:
    """Huffman code lengths limited to ``max_length`` bits.

    Length limiting uses the pragmatic count-halving heuristic: if the
    optimal tree is deeper than the cap, the histogram is flattened
    (``ceil(count/2)``) and the tree rebuilt.  The result stays a valid
    prefix code and is within a fraction of a bit of optimal for the
    distributions produced by quantization.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    if (counts <= 0).any():
        raise ValueError("all symbol counts must be positive")
    work = counts.copy()
    while True:
        lengths = _tree_code_lengths(work)
        if lengths.max() <= max_length:
            return lengths
        work = (work + 1) // 2


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codes given per-symbol code lengths.

    Symbols are ranked by (length, symbol index); codes are consecutive
    integers within each length class.  The decoder rebuilds the identical
    assignment from the lengths alone.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = lengths.size
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    order = np.lexsort((np.arange(n), lengths))
    l_sorted = lengths[order]
    max_len = int(l_sorted[-1])
    hist = np.bincount(l_sorted, minlength=max_len + 1)
    # First code of each length class: the standard canonical recurrence
    # ``first[l] = (first[l-1] + hist[l-1]) << 1``.  O(max_len) scalar
    # steps; everything per-symbol below is array arithmetic.
    first = np.zeros(max_len + 1, dtype=np.uint64)
    code = 0
    for length in range(1, max_len + 1):
        code = (code + int(hist[length - 1])) << 1
        first[length] = code
    class_start = np.zeros(max_len + 1, dtype=np.int64)
    np.cumsum(hist[:-1], out=class_start[1:])
    rank = np.arange(n, dtype=np.int64) - class_start[l_sorted]
    codes = np.empty(n, dtype=np.uint64)
    codes[order] = first[l_sorted] + rank.astype(np.uint64)
    return codes


# -- codebook / decode-table caching ------------------------------------


class _LRUCache:
    """Tiny thread-safe LRU keyed by bytes digests, counting
    ``sz.huffman.cache.hit/miss``."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict[bytes, object] = OrderedDict()

    def get(self, key: bytes):
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
        recorder = get_recorder()
        if value is None:
            recorder.count("sz.huffman.cache.miss")
        else:
            recorder.count("sz.huffman.cache.hit")
        return value

    def put(self, key: bytes, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


_ENCODE_CACHE = _LRUCache(64)
_DECODE_CACHE = _LRUCache(64)


def clear_codebook_caches() -> None:
    """Drop the memoized encoder codebooks and decoder lookup tables."""
    _ENCODE_CACHE.clear()
    _DECODE_CACHE.clear()


def _digest(tag: bytes, *parts: np.ndarray) -> bytes:
    h = hashlib.blake2b(tag, digest_size=16)
    for part in parts:
        h.update(part.tobytes())
    return h.digest()


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _cached_codebook(
    symbols: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, codes) for one histogram, memoized by digest.

    Per-buffer, per-axis MDZ sessions re-encode near-identical alphabets
    every snapshot batch; the heap tree build and the canonical-code
    assignment are the only Python-loop stages left in ``encode``, so
    caching them removes the per-buffer codebook cost entirely on repeats.
    """
    key = _digest(b"enc", symbols, counts)
    cached = _ENCODE_CACHE.get(key)
    if cached is not None:
        return cached
    lengths = code_lengths(counts)
    codes = canonical_codes(lengths)
    value = (_freeze(lengths), _freeze(codes))
    _ENCODE_CACHE.put(key, value)
    return value


#: Hard cap on the dense packed encode table (8 MB of uint64 entries).
_DENSE_TABLE_SPAN_CAP = 1 << 20

#: Below this span a dense table is always worthwhile, regardless of how
#: sparse the alphabet is within it.
_DENSE_TABLE_SPAN_FLOOR = 1 << 16


def _packed_encode_table(
    symbols: np.ndarray, lengths: np.ndarray, codes: np.ndarray
) -> tuple[int | None, np.ndarray]:
    """Fused (code << 6 | length) lookup table for one codebook.

    Returns ``(base, table)``.  When ``base`` is an int the table is
    *dense*: entry ``v - base`` holds the packed code/length for symbol
    value ``v``, so encoding is a single gather straight off the raw
    values — no ``unique``/``searchsorted`` index pass.  When ``base`` is
    ``None`` the value span was too wide to materialize and the table is
    per-*symbol* (same order as ``symbols``); callers index it with the
    inverse mapping instead.

    Six low bits hold the code length (max 57 < 64); the code sits above.
    """
    fused = (codes << np.uint64(6)) | lengths.astype(np.uint64)
    lo = int(symbols[0])
    span = int(symbols[-1]) - lo + 1
    if span <= max(_DENSE_TABLE_SPAN_FLOOR, 4 * symbols.size) and (
        span <= _DENSE_TABLE_SPAN_CAP
    ):
        table = np.zeros(span, dtype=np.uint64)
        table[symbols - lo] = fused
        return lo, table
    return None, fused


class _DecodeTable:
    """Prepared decode structures for one canonical codebook.

    Two lookup strategies behind one surface:

    * ``max_len <= FLAT_TABLE_BITS`` — the classic flat ``2**max_len``
      (symbol, length) table; O(1) per lookup.
    * deeper codebooks — canonical codes left-aligned to ``max_len`` form
      a strictly increasing sequence whose spans tile the window space, so
      ``searchsorted`` on the span starts resolves a window in
      O(log alphabet) with O(alphabet) memory.  This is what caps the
      table: a (corrupt or foreign) blob claiming 50-bit codes can no
      longer force a ``2**50``-entry allocation.
    """

    __slots__ = (
        "max_len",
        "flat_sym",
        "flat_len",
        "bounds",
        "sorted_sym",
        "sorted_len",
        "_scalar",
    )

    def __init__(self, symbols: np.ndarray, lengths: np.ndarray) -> None:
        if lengths.size == 0 or int(lengths.min()) < 1:
            raise DecompressionError("corrupt Huffman codebook: bad length")
        max_len = int(lengths.max())
        if max_len > MAX_CODE_WIDTH:
            raise DecompressionError(
                f"Huffman code length {max_len} exceeds the "
                f"{MAX_CODE_WIDTH}-bit format budget"
            )
        # Exact Kraft check over the length histogram: a canonical codebook
        # must tile the window space exactly.  A deficit means holes (the
        # old table builder's corruption check); a surplus means
        # overlapping spans that would decode silently wrong.
        hist = np.bincount(lengths, minlength=max_len + 1).tolist()
        kraft = sum(c << (max_len - l) for l, c in enumerate(hist) if l and c)
        if kraft != 1 << max_len:
            raise DecompressionError("incomplete Huffman codebook")
        codes = canonical_codes(lengths)
        self.max_len = max_len
        self._scalar = None
        if max_len <= FLAT_TABLE_BITS:
            size = 1 << max_len
            flat_sym = np.zeros(size, dtype=np.int64)
            flat_len = np.zeros(size, dtype=np.int64)
            for sym_value, length, code in zip(symbols, lengths, codes):
                length = int(length)
                shift = max_len - length
                start = int(code) << shift
                flat_sym[start : start + (1 << shift)] = sym_value
                flat_len[start : start + (1 << shift)] = length
            self.flat_sym = _freeze(flat_sym)
            self.flat_len = _freeze(flat_len)
            self.bounds = self.sorted_sym = self.sorted_len = None
        else:
            order = np.lexsort((np.arange(lengths.size), lengths))
            self.bounds = _freeze(
                codes[order] << (max_len - lengths[order]).astype(np.uint64)
            )
            self.sorted_sym = _freeze(symbols[order].copy())
            self.sorted_len = _freeze(lengths[order].copy())
            self.flat_sym = self.flat_len = None

    def lookup(self, windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (symbols, lengths) for ``max_len``-bit windows."""
        if self.flat_sym is not None:
            idx = windows.astype(np.int64)
            return self.flat_sym[idx], self.flat_len[idx]
        idx = np.searchsorted(self.bounds, windows, side="right") - 1
        return self.sorted_sym[idx], self.sorted_len[idx]

    def scalar_tables(self):
        """Python-list lookup structures for the scalar legacy decoder."""
        if self._scalar is None:
            if self.flat_sym is not None:
                self._scalar = (self.flat_sym.tolist(), self.flat_len.tolist())
            else:
                self._scalar = (
                    self.bounds.tolist(),
                    self.sorted_sym.tolist(),
                    self.sorted_len.tolist(),
                )
        return self._scalar


def _cached_decode_table(
    symbols: np.ndarray, lengths: np.ndarray
) -> _DecodeTable:
    key = _digest(b"dec", symbols, lengths)
    cached = _DECODE_CACHE.get(key)
    if cached is not None:
        return cached
    table = _DecodeTable(symbols, lengths)
    _DECODE_CACHE.put(key, table)
    return table


# -- the codec -----------------------------------------------------------


def _resolve_streams(n: int, streams: int | None) -> int:
    """Sub-stream count for one blob: explicit, or scaled with ``n``."""
    if streams is not None:
        count = int(streams)
        if count < 1:
            raise ValueError(f"streams must be >= 1, got {streams}")
        return min(count, MAX_STREAMS)
    if n < _H2_MIN_SYMBOLS:
        return 1
    return max(DEFAULT_STREAMS, min(MAX_STREAMS, n // _SYMBOLS_PER_STREAM))


def _histogram(
    flat: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, int, int]:
    """(symbols, counts, inverse, lo, hi) for a non-empty int64 array.

    Narrow value spans take a dense ``bincount`` over the range — one pass,
    no sort — whose nonzero bins reproduce exactly the sorted
    (symbols, counts) pair ``np.unique`` would return, so codebook cache
    digests are identical on both paths.  ``inverse`` is only materialized
    on the wide-span fallback; dense-span callers index by value instead.
    """
    lo, hi = int(flat.min()), int(flat.max())
    span = hi - lo + 1
    if span <= max(1 << 16, 4 * flat.size) and span <= _DENSE_TABLE_SPAN_CAP:
        full = np.bincount(flat - lo, minlength=span)
        present = np.flatnonzero(full)
        return present + lo, full[present], None, lo, hi
    symbols, inverse = np.unique(flat, return_inverse=True)
    counts = np.bincount(inverse, minlength=symbols.size)
    return symbols, counts, inverse, lo, hi


def estimate_encoded_bytes(
    values: np.ndarray,
    alphabet_hint: int | None = None,
    streams: int | None = None,
) -> int:
    """Predicted size of :meth:`HuffmanCodec.encode`'s blob, without packing.

    The Huffman payload length is exact — ``sum(counts * lengths)`` bits
    over the (cached) codebook — so the only approximations are the H2
    per-stream byte padding (taken at its 4-bit average) and the JSON/blob
    framing overhead.  Costs one histogram pass plus a codebook-cache
    lookup; no gather, no bit packing, no payload allocation.
    """
    arr = np.asarray(values)
    flat = arr.astype(np.int64, copy=False).ravel()
    if flat.size == 0:
        return 24
    symbols, counts, _, lo, hi = _histogram(flat)
    lengths, _ = _cached_codebook(symbols, counts)
    payload_bits = int((counts * lengths).sum())
    n_streams = _resolve_streams(flat.size, streams)
    if alphabet_hint is not None and hi - lo < alphabet_hint:
        codebook_bytes = int(alphabet_hint)
    else:
        codebook_bytes = _compact_symbols(symbols).nbytes + symbols.size
    total = 56 + codebook_bytes + (payload_bits + 7) // 8
    if n_streams > 1:
        # Per-stream byte padding (~4 bits each) plus the sizes table.
        total += (n_streams * 4) // 8 + _compact_unsigned(
            np.array([max(payload_bits // 8, 1)], dtype=np.uint64)
        ).itemsize * n_streams
    return total


def _compact_unsigned(values: np.ndarray) -> np.ndarray:
    """Store an unsigned array in the narrowest dtype that fits."""
    hi = int(values.max()) if values.size else 0
    for dtype in (np.uint8, np.uint16, np.uint32):
        if hi <= np.iinfo(dtype).max:
            return values.astype(dtype)
    return values.astype(np.uint64)


def _h2_payload(
    sym_codes: np.ndarray, sym_lens: np.ndarray, n_streams: int
) -> tuple[bytes, np.ndarray]:
    """Pack codes into N round-robin sub-streams; returns (payload, sizes).

    Stream ``k`` carries symbols ``k, k+N, k+2N, ...`` and is padded with
    zero bits to a byte boundary, so the concatenated payload is exactly
    the per-stream :func:`pack_codes` outputs back to back.  The whole
    reshuffle is a transpose plus one vectorized pack: byte alignment is
    expressed as zero-length/pad-length pseudo-codes appended per stream.
    """
    n = sym_codes.size
    rounds = -(-n // n_streams)
    total = rounds * n_streams
    grid_codes = np.zeros(total, dtype=np.uint64)
    grid_codes[:n] = sym_codes
    grid_lens = np.zeros(total, dtype=np.int64)
    grid_lens[:n] = sym_lens
    # Round-major (rounds, N) -> stream-major (N, rounds); absent tail
    # elements keep length 0 and contribute no bits.  The transpose lands
    # straight in a preallocated (N, rounds+1) grid whose last column is
    # the per-stream byte-alignment pseudo-code, so the pack below reads
    # one contiguous array with no further copies.
    rm_codes = grid_codes.reshape(rounds, n_streams)
    rm_lens = grid_lens.reshape(rounds, n_streams)
    stream_bits = rm_lens.sum(axis=0)
    pad_bits = (-stream_bits) % 8
    ext_codes = np.zeros((n_streams, rounds + 1), dtype=np.uint64)
    ext_lens = np.zeros((n_streams, rounds + 1), dtype=np.int64)
    ext_codes[:, :rounds] = rm_codes.T
    ext_lens[:, :rounds] = rm_lens.T
    ext_lens[:, rounds] = pad_bits
    payload = pack_codes(ext_codes.ravel(), ext_lens.ravel())
    sizes = (stream_bits + pad_bits) // 8
    return payload, sizes


class HuffmanCodec:
    """Self-contained canonical Huffman encoder/decoder for integer arrays.

    ``encode`` returns a blob embedding the codebook (distinct symbol values
    and their code lengths) followed by the packed bit stream; ``decode``
    needs nothing but that blob and the symbol count.
    """

    @staticmethod
    def encode(
        values: np.ndarray,
        alphabet_hint: int | None = None,
        streams: int | None = None,
    ) -> bytes:
        """Encode an integer array into a self-describing Huffman blob.

        ``alphabet_hint`` emulates SZ's dense codebook handling: the C
        implementation allocates and serializes tree structures sized to
        the *quantization scale*, not to the observed alphabet, which is
        exactly why large scales slow it down (Figure 9).  When a hint is
        given (and the symbols fit in ``[0, hint)`` after centering), the
        codebook is stored as a dense per-symbol length table of that size.

        ``streams`` controls the H2 sub-stream fan-out: ``None`` (default)
        scales the count with the array size (single-stream below
        ``_H2_MIN_SYMBOLS``, then ~one stream per ``_SYMBOLS_PER_STREAM``
        symbols up to :data:`MAX_STREAMS`); ``1`` forces the legacy
        single-stream format (bit-identical to historical blobs); any
        larger value forces that H2 fan-out.
        """
        arr = np.asarray(values)
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError("HuffmanCodec encodes integer arrays only")
        recorder = get_recorder()
        dtype_tag = arr.dtype.str
        flat = arr.astype(np.int64, copy=False).ravel()
        writer = BlobWriter()
        if flat.size == 0:
            writer.write_json({"n": 0, "dt": dtype_tag})
            return writer.getvalue()
        with recorder.span("sz.huffman.encode", symbols=int(flat.size)), \
                recorder.timer("sz.huffman.encode"):
            with recorder.timer("sz.huffman.encode.histogram"):
                symbols, counts, inverse, lo, hi = _histogram(flat)
            with recorder.timer("sz.huffman.encode.table"):
                lengths, codes = _cached_codebook(symbols, counts)
                base, table = _packed_encode_table(symbols, lengths, codes)
            with recorder.timer("sz.huffman.encode.pack"):
                if base is not None:
                    entries = table[flat - base]
                else:
                    if inverse is None:
                        inverse = np.searchsorted(symbols, flat)
                    entries = table[inverse]
                sym_codes = entries >> np.uint64(6)
                sym_lens = (entries & np.uint64(63)).astype(np.int64)
                n_streams = _resolve_streams(flat.size, streams)
                if n_streams == 1:
                    payload = pack_codes(sym_codes, sym_lens)
                    sizes = None
                else:
                    payload, sizes = _h2_payload(sym_codes, sym_lens, n_streams)
            with recorder.timer("sz.huffman.encode.write"):
                dense_base: int | None = None
                if alphabet_hint is not None and hi - lo < alphabet_hint:
                    dense_base = lo
                meta = {"n": int(flat.size), "dense": dense_base, "dt": dtype_tag}
                if n_streams > 1:
                    meta["v"] = 2
                    meta["ns"] = n_streams
                writer.write_json(meta)
                if dense_base is None:
                    writer.write_array(_compact_symbols(symbols))
                    writer.write_array(lengths.astype(np.uint8))
                else:
                    dense = np.zeros(int(alphabet_hint), dtype=np.uint8)
                    dense[symbols - dense_base] = lengths
                    writer.write_array(dense)
                if sizes is not None:
                    writer.write_array(_compact_unsigned(sizes))
                writer.write_bytes(payload)
        blob = writer.getvalue()
        if recorder.enabled:
            recorder.count("sz.huffman.encode.symbols", flat.size)
            recorder.count("sz.huffman.encode.alphabet", symbols.size)
            recorder.count("sz.huffman.encode.bytes", len(blob))
            recorder.annotate(
                entropy_streams=n_streams,
                alphabet=int(symbols.size),
                huffman_bytes=len(blob),
            )
        return blob

    @staticmethod
    def decode(blob: bytes) -> np.ndarray:
        """Decode a blob produced by :meth:`encode`.

        The symbol dtype recorded at encode time is restored, so an
        ``int32`` array comes back ``int32``; blobs written before the
        dtype tag existed decode as ``int64`` (the historical behaviour).
        H2 blobs (``"v": 2``) run the vectorized multi-stream decoder;
        anything else takes the legacy scalar path, bit-exactly.
        """
        recorder = get_recorder()
        reader = BlobReader(blob)
        meta = reader.read_json()
        n = int(meta["n"])
        dtype = np.dtype(str(meta.get("dt", "<i8")))
        if n == 0:
            return np.empty(0, dtype=dtype)
        version = int(meta.get("v", 1))
        if version not in (1, 2):
            raise DecompressionError(f"unsupported Huffman blob version {version}")
        with recorder.span("sz.huffman.decode", symbols=n), \
                recorder.timer("sz.huffman.decode"):
            dense_base = meta.get("dense")
            if dense_base is None:
                symbols = reader.read_array().astype(np.int64)
                lengths = reader.read_array().astype(np.int64)
            else:
                dense = reader.read_array().astype(np.int64)
                present = np.nonzero(dense)[0]
                symbols = present + int(dense_base)
                lengths = dense[present]
            if symbols.size == 1:
                # Degenerate single-symbol alphabet: the 1-bit codes carry
                # no information beyond the count.
                out = np.full(n, symbols[0], dtype=np.int64)
            else:
                table = _cached_decode_table(symbols, lengths)
                if version == 2:
                    n_streams = int(meta.get("ns", 0))
                    sizes = reader.read_array()
                    payload = reader.read_bytes()
                    out = _decode_streams(payload, sizes, n, n_streams, table)
                else:
                    payload = reader.read_bytes()
                    out = _decode_stream(payload, n, table)
        if recorder.enabled:
            recorder.count("sz.huffman.decode.symbols", n)
        return out.astype(dtype, copy=False)


def _compact_symbols(symbols: np.ndarray) -> np.ndarray:
    """Store the symbol table in the narrowest dtype that fits."""
    lo, hi = int(symbols.min()), int(symbols.max())
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return symbols.astype(dtype)
    return symbols.astype(np.int64)


def _decode_streams(
    payload: bytes,
    sizes: np.ndarray,
    n: int,
    n_streams: int,
    table: _DecodeTable,
) -> np.ndarray:
    """Round-based vectorized decode of an H2 multi-stream payload.

    All N stream cursors advance together: each round gathers one 64-bit
    window per stream from a precombined sliding-word matrix, resolves all
    of them with one table lookup, writes the symbols of round ``r`` to
    ``out[r*N : r*N + N]`` (round-robin is contiguous in round-major
    order), and bumps the cursors by the decoded code lengths.  Runaway
    cursors (truncated/corrupt streams) read zero padding, overrun their
    stream's bit budget, and are rejected by the final exhaustion check.
    """
    if n_streams < 1 or n_streams > MAX_STREAMS:
        raise DecompressionError(f"corrupt H2 stream count {n_streams}")
    sizes = np.asarray(sizes).astype(np.int64)
    if sizes.size != n_streams:
        raise DecompressionError(
            f"H2 stream table has {sizes.size} entries for {n_streams} streams"
        )
    if (sizes < 0).any() or int(sizes.sum()) != len(payload):
        raise DecompressionError("H2 stream sizes disagree with payload length")
    width = int(sizes.max()) + 16
    # A valid round-robin split is balanced; reject degenerate size tables
    # before they can inflate the (streams x width) state matrices.
    if n_streams * width > 2 * len(payload) + 64 * n_streams + 4096:
        raise DecompressionError("unbalanced H2 stream sizes")
    mat = np.zeros((n_streams, width), dtype=np.uint8)
    raw = np.frombuffer(payload, dtype=np.uint8)
    if raw.size:
        row_idx = np.repeat(np.arange(n_streams), sizes)
        offsets = np.cumsum(sizes) - sizes
        col_idx = np.arange(raw.size, dtype=np.int64) - np.repeat(offsets, sizes)
        mat[row_idx, col_idx] = raw
    # Precombine: word[k, p] = bytes p..p+7 of stream k, big-endian, so a
    # round's window gather is a single fancy index into a flat array.
    word_cols = width - 7
    words = np.zeros((n_streams, word_cols), dtype=np.uint64)
    for j in range(8):
        words <<= np.uint64(8)
        words |= mat[:, j : j + word_cols]
    flat_words = words.ravel()
    row_base = np.arange(n_streams, dtype=np.int64) * word_cols
    need = np.uint64(64 - table.max_len)
    mask = np.uint64((1 << table.max_len) - 1)
    out = np.empty(n, dtype=np.int64)
    cursors = np.zeros(n_streams, dtype=np.int64)
    full_rounds, remainder = divmod(n, n_streams)
    rounds = full_rounds + (1 if remainder else 0)
    byte_cap = word_cols - 1
    for r in range(rounds):
        active = n_streams if r < full_rounds else remainder
        cur = cursors[:active]
        byte_idx = np.minimum(cur >> 3, byte_cap)
        window = (
            flat_words[row_base[:active] + byte_idx]
            >> (need - (cur & 7).astype(np.uint64))
        ) & mask
        sym, length = table.lookup(window)
        out[r * n_streams : r * n_streams + active] = sym
        cur += length
    if (cursors > sizes * 8).any():
        raise DecompressionError("Huffman stream exhausted before count")
    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("sz.huffman.decode.h2_blobs")
        recorder.count("sz.huffman.decode.rounds", rounds)
        recorder.count("sz.huffman.decode.streams", n_streams)
    return out


def _decode_stream(payload: bytes, n: int, table: _DecodeTable) -> np.ndarray:
    """Scalar sequential decode of ``n`` symbols (legacy v1 blobs).

    Flat-table codebooks walk the original Python-int bit accumulator
    loop; deeper codebooks substitute a ``bisect`` over the canonical span
    starts for the table index, keeping memory at O(alphabet) instead of
    O(2**max_len) — see the satellite cap in :class:`_DecodeTable`.
    """
    max_len = table.max_len
    if table.flat_sym is not None:
        table_sym, table_len = table.scalar_tables()
        lookup = None
    else:
        bounds, sorted_sym, sorted_len = table.scalar_tables()

        def lookup(window: int) -> int:
            return bisect.bisect_right(bounds, window) - 1

    out: list[int] = []
    append = out.append
    acc = 0
    nbits = 0
    mask = (1 << max_len) - 1
    remaining = n
    for byte in payload:
        acc = ((acc << 8) | byte) & 0xFFFFFFFFFFFFFFFF
        nbits += 8
        while nbits >= max_len and remaining:
            window = (acc >> (nbits - max_len)) & mask
            if lookup is None:
                length = table_len[window]
                append(table_sym[window])
            else:
                idx = lookup(window)
                length = sorted_len[idx]
                append(sorted_sym[idx])
            nbits -= length
            remaining -= 1
        if not remaining:
            break
    # Flush: trailing symbols whose codes are shorter than max_len may sit
    # in fewer than max_len leftover bits; zero-pad the window.
    while remaining:
        if nbits <= 0:
            raise DecompressionError("Huffman stream exhausted before count")
        window = ((acc << (max_len - nbits)) & mask) if nbits < max_len else (
            (acc >> (nbits - max_len)) & mask
        )
        if lookup is None:
            length = table_len[window]
            symbol = table_sym[window]
        else:
            idx = lookup(window)
            length = sorted_len[idx]
            symbol = sorted_sym[idx]
        if length > nbits:
            raise DecompressionError("Huffman stream exhausted mid-code")
        append(symbol)
        nbits -= length
        remaining -= 1
    return np.asarray(out, dtype=np.int64)
