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
  runs a round-based numpy state machine — one flat-table lookup per round
  advances every stream cursor at once, so an n-symbol payload decodes in
  ~n/N vectorized rounds instead of n Python-loop steps.  The round loop
  runs over the streams of a whole batch of blobs (:func:`decode_blobs`),
  so a batch costs as many rounds as its longest blob, not the sum over
  its blobs; readers collect the blobs of many payloads in a
  :class:`HuffmanBatch`.  The encoder writes H2 for every blob of at least
  1024 symbols, a one-snapshot buffer head included.  Single-stream (v1)
  blobs (smaller blobs, ``streams=1`` writes and archives written before
  H2) decode bit-exactly through the original scalar table walker, one by
  one.

Every blob decodes through its own flat ``2**max_len`` table, built from
its codebook when the blob is parsed (about 15 µs); the decoder keeps no
state between blobs.  Code lengths run from 1 to :data:`MAX_CODE_LENGTH`,
as the encoder writes them, and a deeper codebook is rejected before any
table is built.

The public entry point is :class:`HuffmanCodec` with ``encode`` / ``decode``
class methods that produce and consume self-contained byte blobs (codebook
included); ``decode`` is :func:`decode_blobs` with a batch of one.
"""

from __future__ import annotations

import heapq
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..exceptions import DecompressionError
from ..serde import BlobReader, BlobWriter
from ..telemetry import get_recorder
from .bitio import pack_codes

#: Hard cap on Huffman code length.  The encoder never writes a longer
#: code and the decoder rejects a codebook that claims one, so a flat
#: decode table is at most 2^16 entries and the vectorized bit packer
#: never sees codes wider than 57 bits.
MAX_CODE_LENGTH = 16

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
#: format.  At and above it a blob is H2: the scalar walker costs about
#: 0.5 ms at 1024 symbols and 1-1.6 ms at 3137 (a one-snapshot buffer
#: head of copper-b), while an H2 blob's streams ride in the round loop
#: of the read group its chunk decodes in.  Below it the H2 framing (a
#: stream length table and two JSON keys, 52 bytes at 8 streams) grows a
#: 600-symbol blob by about 10%, and the MDZ1 fixtures, whose blobs hold
#: at most 600 symbols, keep their v1 payloads.
_H2_MIN_SYMBOLS = 1024


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
    """The flat decode table of one canonical codebook.

    :attr:`packed` holds ``2**max_len`` int32 entries, indexed by the
    next ``max_len`` bits of a stream; each is ``rank << 6 | length``,
    where ``rank`` indexes :attr:`symbols` and ``length`` is the code
    length.  Codes must be 1 to :data:`MAX_CODE_LENGTH` bits long, so
    the table has at most 2^16 entries: a (corrupt or foreign) blob
    claiming deeper codes is rejected before the table is built.
    """

    __slots__ = ("max_len", "symbols", "packed")

    def __init__(self, symbols: np.ndarray, lengths: np.ndarray) -> None:
        if lengths.size == 0 or int(lengths.min()) < 1:
            raise DecompressionError("corrupt Huffman codebook: bad length")
        max_len = int(lengths.max())
        if max_len > MAX_CODE_LENGTH:
            raise DecompressionError(
                f"Huffman code length {max_len} exceeds the "
                f"{MAX_CODE_LENGTH}-bit limit"
            )
        # Exact Kraft check over the length histogram: a canonical codebook
        # must tile the window space exactly.  A deficit means holes (the
        # old table builder's corruption check); a surplus means
        # overlapping spans that would decode silently wrong.
        hist = np.bincount(lengths, minlength=max_len + 1).tolist()
        kraft = sum(c << (max_len - l) for l, c in enumerate(hist) if l and c)
        if kraft != 1 << max_len:
            raise DecompressionError("incomplete Huffman codebook")
        # Canonical order is (length, symbol index); each code's window
        # span is 2**(max_len - length), and the spans tile [0, 2**max_len)
        # in that order.  At most 2**16 symbols, so every entry fits in 22
        # bits.
        order = np.lexsort((np.arange(lengths.size), lengths))
        sorted_len = lengths[order]
        entries = ((order << 6) | sorted_len).astype(np.int32)
        self.max_len = max_len
        self.symbols = symbols
        self.packed = np.repeat(entries, np.left_shift(1, max_len - sorted_len))


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
    (symbols, counts) pair ``np.unique`` would return, so both paths
    build the same codebook.  ``inverse`` is only materialized
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
    over the codebook — so the only approximations are the H2 per-stream
    byte padding (taken at its 4-bit average) and the JSON/blob framing
    overhead.  Costs one histogram pass plus a codebook build; no gather,
    no bit packing, no payload allocation.
    """
    arr = np.asarray(values)
    flat = arr.astype(np.int64, copy=False).ravel()
    if flat.size == 0:
        return 24
    symbols, counts, _, lo, hi = _histogram(flat)
    lengths = code_lengths(counts)
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
        ``_H2_MIN_SYMBOLS`` = 1024 symbols, then at least
        :data:`DEFAULT_STREAMS` and ~one stream per
        ``_SYMBOLS_PER_STREAM`` symbols up to :data:`MAX_STREAMS`); ``1``
        forces the legacy single-stream format (bit-identical to
        historical blobs); any larger value forces that H2 fan-out.
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
                lengths = code_lengths(counts)
                codes = canonical_codes(lengths)
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
        """Decode a blob produced by :meth:`encode`: a batch of one.

        The symbol dtype recorded at encode time is restored, so an
        ``int32`` array comes back ``int32``; blobs written before the
        dtype tag existed decode as ``int64`` (the historical behaviour).
        See :func:`decode_blobs` for the decoder itself.
        """
        return decode_blobs([blob])[0]


#: Most decode-table entries one round loop takes.  Each H2 blob brings
#: its own table of up to 2**16 int32 entries and the loop concatenates
#: them: 200 hostile 16-bit codebooks in one batch would otherwise hold
#: 105 MB.  Real read groups stay far below it (at most 27,648 entries on
#: copper-b, 42,240 on helium-b).
_LOOP_TABLE_ENTRIES = 1 << 20


def decode_blobs(blobs: Sequence[bytes]) -> list[np.ndarray]:
    """Decode Huffman blobs; returns one symbol array per blob, in order.

    Every H2 stream of every blob runs through one round loop (see
    :func:`_decode_h2`), so the batch costs as many rounds as its
    longest blob rather than the sum over its blobs.  Each blob brings
    its own decode table; once the waiting blobs' tables reach
    :data:`_LOOP_TABLE_ENTRIES` entries, the loop runs on them and the
    next blobs start a new one.  v1 blobs take the scalar walker
    :func:`_decode_stream` one by one, counted as
    ``sz.huffman.decode.v1_blobs``; empty and single-symbol blobs need
    no bit reading.  Any corrupt blob raises :class:`DecompressionError`
    for the batch.
    """
    if not blobs:
        return []
    recorder = get_recorder()
    out: list = [None] * len(blobs)
    pending: list[tuple[int, _H2Blob]] = []
    entries = symbols = walked = h2_blobs = rounds = streams = 0
    with recorder.span("sz.huffman.decode", blobs=len(blobs)), \
            recorder.timer("sz.huffman.decode"):
        for i, blob in enumerate(blobs):
            parsed = _parse_blob(blob)
            if isinstance(parsed, _H2Blob):
                symbols += parsed.n
                pending.append((i, parsed))
                entries += parsed.table.packed.size
            elif isinstance(parsed, _V1Blob):
                symbols += parsed.n
                walked += 1
                out[i] = _decode_stream(
                    parsed.payload, parsed.n, parsed.table
                ).astype(parsed.dtype, copy=False)
            else:
                symbols += parsed.size
                out[i] = parsed
            if pending and (
                entries >= _LOOP_TABLE_ENTRIES or i == len(blobs) - 1
            ):
                arrays, loop_rounds = _decode_h2([h2 for _, h2 in pending])
                h2_blobs += len(pending)
                rounds += loop_rounds
                streams += sum(h2.sizes.size for _, h2 in pending)
                for (j, _), array in zip(pending, arrays):
                    out[j] = array
                pending, entries = [], 0
    if recorder.enabled:
        recorder.count("sz.huffman.decode.symbols", symbols)
        if walked:
            recorder.count("sz.huffman.decode.v1_blobs", walked)
        if h2_blobs:
            recorder.count("sz.huffman.decode.h2_blobs", h2_blobs)
            recorder.count("sz.huffman.decode.rounds", rounds)
            recorder.count("sz.huffman.decode.streams", streams)
    return out


class HuffmanBatch:
    """Huffman blobs collected for one :func:`decode_blobs` pass.

    A member's parse step registers each sub-blob it finds with
    :meth:`add` and keeps the returned handle; after :meth:`decode`,
    calling a handle returns that blob's symbols.
    """

    def __init__(self) -> None:
        self._blobs: list[bytes] = []
        self._symbols: list[np.ndarray] = []

    def add(self, blob: bytes) -> Callable[[], np.ndarray]:
        """Register ``blob``; returns the handle to its symbols."""
        index = len(self._blobs)
        self._blobs.append(blob)
        return lambda: self._symbols[index]

    def decode(self) -> None:
        """Decode every registered blob in one entropy pass."""
        self._symbols = decode_blobs(self._blobs)


def decode_single(parse: Callable, *args):
    """Run a parse step as a batch of one: ``parse(*args, batch)``
    registers its blobs and returns the reconstruct step, which runs
    once the batch is decoded."""
    batch = HuffmanBatch()
    reconstruct = parse(*args, batch)
    batch.decode()
    return reconstruct()


class _H2Blob(NamedTuple):
    """A validated H2 blob awaiting the round loop."""

    n: int
    dtype: np.dtype
    table: _DecodeTable
    sizes: np.ndarray
    counts: np.ndarray
    payload: bytes


class _V1Blob(NamedTuple):
    """A validated single-stream blob awaiting the scalar walker."""

    n: int
    dtype: np.dtype
    table: _DecodeTable
    payload: bytes


def _parse_blob(blob: bytes) -> np.ndarray | _H2Blob | _V1Blob:
    """Validate one blob; decode it unless it needs bit reading.

    Every code is at least one bit long, so a blob claiming more
    symbols than its payload has bits (or an H2 stream more symbols
    than its own bits) is rejected before anything is sized by the
    claimed count.
    """
    reader = BlobReader(blob)
    meta = reader.read_json()
    n = int(meta["n"])
    dtype = np.dtype(str(meta.get("dt", "<i8")))
    if n == 0:
        return np.empty(0, dtype=dtype)
    version = int(meta.get("v", 1))
    if version not in (1, 2):
        raise DecompressionError(f"unsupported Huffman blob version {version}")
    dense_base = meta.get("dense")
    if dense_base is None:
        symbols = reader.read_array().astype(np.int64)
        lengths = reader.read_array().astype(np.int64)
    else:
        dense = reader.read_array().astype(np.int64)
        present = np.nonzero(dense)[0]
        symbols = present + int(dense_base)
        lengths = dense[present]
    sizes = reader.read_array() if version == 2 else None
    payload = reader.read_bytes()
    if not 0 < n <= 8 * len(payload):
        raise DecompressionError(
            f"Huffman blob claims {n} symbols; its payload holds "
            f"{8 * len(payload)} bits"
        )
    if version == 2:
        n_streams = int(meta.get("ns", 0))
        sizes, counts = _check_streams(n_streams, sizes, n, payload)
    if symbols.size == 1:
        # Degenerate single-symbol alphabet: the 1-bit codes carry no
        # information beyond the count.  The encoder gives a lone symbol
        # a 1-bit code; any other length is a forged codebook.
        if int(lengths[0]) != 1:
            raise DecompressionError(
                f"one-symbol Huffman codebook with a {int(lengths[0])}-bit "
                "code; the encoder writes 1 bit"
            )
        return np.full(n, symbols[0], dtype=np.int64).astype(dtype, copy=False)
    table = _DecodeTable(symbols, lengths)
    if version == 1:
        return _V1Blob(n, dtype, table, payload)
    return _H2Blob(n, dtype, table, sizes, counts, payload)


def _check_streams(
    n_streams: int, sizes: np.ndarray, n: int, payload: bytes
) -> tuple[np.ndarray, np.ndarray]:
    """Validate an H2 stream table; returns (sizes, per-stream counts).

    Stream ``k`` carries symbols ``k, k+N, k+2N, ...`` of the ``n``.
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
    # A valid round-robin split is balanced; reject degenerate size tables.
    width = int(sizes.max()) + 16
    if n_streams * width > 2 * len(payload) + 64 * n_streams + 4096:
        raise DecompressionError("unbalanced H2 stream sizes")
    counts = np.full(n_streams, n // n_streams, dtype=np.int64)
    counts[: n % n_streams] += 1
    if (counts > 8 * sizes).any():
        raise DecompressionError(
            "H2 stream claims more symbols than it has bits"
        )
    return sizes, counts


def _byte_words(payload: bytes) -> np.ndarray:
    """``word[i]`` = bytes ``i..i+7`` of ``payload`` (zero-padded),
    big-endian: one 64-bit word per byte."""
    buf = np.frombuffer(payload + bytes(8), dtype=np.uint8)
    view = np.ndarray(
        (len(payload) + 1,), dtype=">u8", buffer=buf, strides=(1,)
    )
    return view.astype(np.uint64)


def _decode_h2(blobs: list[_H2Blob]) -> tuple[list[np.ndarray], int]:
    """One round loop over every stream of ``blobs``; returns the symbol
    arrays and the number of rounds run.

    The payloads sit back to back in one byte array, and a stream's
    cursor is an absolute bit position in it.  Each round gathers one
    64-bit word per active stream, cuts the stream's ``max_len``-bit
    window out of it (left shift by the cursor's bit offset, logical
    right shift by ``64 - max_len``), adds the stream's offset into the
    concatenated packed tables and looks up ``rank << 6 | length``.
    Window bits past the end of a code never change the lookup, so a
    window that runs into the next stream's bytes decodes what zero
    padding would; a cursor that leaves its stream has misread, and the
    exhaustion check rejects it.

    Streams are sorted by symbol count, longest first, so each round's
    active streams are a prefix and round ``r`` fills the next
    ``active`` slots of one flat array.  A single blob is already in that
    order (round-robin counts never increase) and its flat array is in
    symbol order, so it skips the sort and the un-permute copy.
    """
    streams = [h2.sizes.size for h2 in blobs]
    sizes = np.concatenate([h2.sizes for h2 in blobs])
    counts = np.concatenate([h2.counts for h2 in blobs])
    ends = np.cumsum(sizes) * 8
    cursors = ends - sizes * 8
    shifts = np.repeat(
        np.array([64 - h2.table.max_len for h2 in blobs], dtype=np.uint64),
        streams,
    )
    packed = blobs[0].table.packed
    order = offsets = None
    if len(blobs) > 1:
        # A blob's table starts where the tables before it end.
        tables = [h2.table.packed for h2 in blobs]
        packed = np.concatenate(tables)
        offsets = np.repeat(
            np.cumsum([0] + [table.size for table in tables[:-1]]), streams
        )
        order = np.argsort(-counts, kind="stable")
        counts, cursors, ends, shifts, offsets = (
            counts[order], cursors[order], ends[order], shifts[order],
            offsets[order],
        )
    words = _byte_words(b"".join(h2.payload for h2 in blobs))
    flat = np.empty(int(counts.sum()), dtype=packed.dtype)
    rounds = int(counts[0])
    descending = -counts
    segments = []
    r = pos = 0
    while r < rounds:
        # The streams still running in round r stay the same set until
        # the shortest of them ends.
        active = int(np.searchsorted(descending, -r, side="left"))
        stop = int(counts[active - 1])
        cur = cursors[:active]
        shift = shifts[:active]
        offset = None if offsets is None else offsets[:active]
        # Shifts run on unsigned views; the window then reads as int64.
        cur_u = cur.view(np.uint64)
        tmp = np.empty(active, dtype=np.int64)
        tmp_u = tmp.view(np.uint64)
        win = np.empty(active, dtype=np.int64)
        win_u = win.view(np.uint64)
        length = np.empty(active, dtype=packed.dtype)
        for _ in range(r, stop):
            np.right_shift(cur, 3, out=tmp)
            words.take(tmp, out=win_u, mode="clip")
            np.bitwise_and(cur_u, 7, out=tmp_u)
            np.left_shift(win_u, tmp_u, out=win_u)
            np.right_shift(win_u, shift, out=win_u)
            if offset is not None:
                np.add(win, offset, out=win)
            dst = flat[pos : pos + active]
            packed.take(win, out=dst, mode="clip")
            np.bitwise_and(dst, 63, out=length)
            np.add(cur, length, out=cur)
            pos += active
        block = flat[pos - (stop - r) * active : pos]
        segments.append((r, stop, block.reshape(stop - r, active)))
        r = stop
    del words
    if (cursors > ends).any():
        raise DecompressionError("Huffman stream exhausted before count")
    if order is None:
        h2 = blobs[0]
        np.right_shift(flat, 6, out=flat)
        return [h2.table.symbols.astype(h2.dtype).take(flat)], rounds
    # Un-permute: a segment's rounds share one active set, so it is a
    # (rounds, active) block.  A blob's streams sit in two runs of
    # columns, its full streams (one symbol more) and the rest.
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    arrays = []
    first = 0
    for h2, n_streams in zip(blobs, streams):
        height = int(h2.counts[0])
        full = h2.n - (height - 1) * n_streams
        runs = [(position[first], 0, full, height)]
        if full < n_streams:
            runs.append((position[first + full], full, n_streams, height - 1))
        first += n_streams
        grid = np.empty((height, n_streams), dtype=np.intp)
        for r0, r1, block in segments:
            for column, lo, hi, until in runs:
                rows = min(r1, until) - r0
                if rows > 0:
                    np.right_shift(
                        block[:rows, column : column + hi - lo],
                        6,
                        out=grid[r0 : r0 + rows, lo:hi],
                    )
        symbols = h2.table.symbols.astype(h2.dtype)
        arrays.append(symbols.take(grid.ravel()[: h2.n]))
    return arrays, rounds


def _compact_symbols(symbols: np.ndarray) -> np.ndarray:
    """Store the symbol table in the narrowest dtype that fits."""
    lo, hi = int(symbols.min()), int(symbols.max())
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return symbols.astype(dtype)
    return symbols.astype(np.int64)


def _decode_stream(payload: bytes, n: int, table: _DecodeTable) -> np.ndarray:
    """Scalar sequential decode of ``n`` symbols (legacy v1 blobs): the
    original Python-int bit accumulator loop over the blob's flat table."""
    max_len = table.max_len
    table_sym = table.symbols[table.packed >> 6].tolist()
    table_len = (table.packed & 63).tolist()
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
            length = table_len[window]
            append(table_sym[window])
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
        length = table_len[window]
        if length > nbits:
            raise DecompressionError("Huffman stream exhausted mid-code")
        append(table_sym[window])
        nbits -= length
        remaining -= 1
    return np.asarray(out, dtype=np.int64)
