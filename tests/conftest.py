"""Shared fixtures: small, fast synthetic streams for every test module."""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import MDZConfig
from repro.core.mdz import MDZ
from repro.serde import BlobReader, BlobWriter
from repro.stream import format as fmt
from repro.stream import parse_stream
from repro.sz.bitio import pack_codes
from repro.sz.huffman import HuffmanCodec, canonical_codes, code_lengths
from repro.sz.lossless import lossless_compress, lossless_decompress

#: Legacy MDZ1 archives, written before MDZ1 became read-only
#: (``tools/legacy_digests.py`` pins their digests).
MDZ1_FIXTURES = Path(__file__).resolve().parent / "data" / "mdz1"


@pytest.fixture
def mdz1_archive() -> bytes:
    """A legacy MDZ1 archive: default ADP pool, seq2, zlib, BS=5."""
    return (MDZ1_FIXTURES / "adp-seq2-zlib.mdz").read_bytes()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def crystal_stream(rng) -> np.ndarray:
    """A (20, 300) stream with discrete levels + small vibration.

    Mimics the Copper-B regime: level structure in space, decorrelated
    vibration in time.
    """
    levels = rng.integers(0, 10, 300) * 1.8
    vibration = rng.normal(0.0, 0.04, (20, 300))
    return (levels[None, :] + vibration).astype(np.float64)


@pytest.fixture
def smooth_stream(rng) -> np.ndarray:
    """A (20, 300) stream that is very smooth in time (Pt/LJ regime)."""
    base = rng.uniform(0.0, 50.0, 300)
    drift = np.cumsum(rng.normal(0.0, 0.005, (20, 300)), axis=0)
    return (base[None, :] + drift).astype(np.float64)


@pytest.fixture
def random_stream(rng) -> np.ndarray:
    """A (20, 300) stream with no structure (protein/solvent regime)."""
    return np.cumsum(rng.normal(0.0, 0.5, (20, 300)), axis=0) + rng.uniform(
        0, 30, 300
    )


@pytest.fixture
def trajectory(rng) -> np.ndarray:
    """A small (12, 150, 3) trajectory for container-level tests."""
    levels = rng.integers(0, 8, (150, 3)) * 2.0
    vib = rng.normal(0.0, 0.03, (12, 150, 3))
    drift = np.cumsum(rng.normal(0.0, 0.002, (12, 1, 3)), axis=0)
    return levels[None, :, :] + vib + drift


def absolute_bound(stream: np.ndarray, epsilon: float = 1e-3) -> float:
    """Value-range-relative bound -> absolute, as the harness does."""
    return float(epsilon) * float(stream.max() - stream.min())


#: Forged header edits, keyed by case: the header field each one breaks
#: and the in-place edit (missing, mistyped or invalid values).
FORGED_HEADERS = {
    "scale-missing": ("scale", lambda h: h.pop("scale")),
    "scale-string": ("scale", lambda h: h.update(scale="x")),
    "scale-null": ("scale", lambda h: h.update(scale=None)),
    "lossless-missing": ("lossless", lambda h: h.pop("lossless")),
    "method-unknown": ("method", lambda h: h.update(method="zz")),
    "sequence-unknown": ("sequence", lambda h: h.update(sequence="zz")),
    "bounds-zero": ("error_bounds", lambda h: h.update(error_bounds=[0] * 3)),
}


def _rewrite_mdz2(blob: bytes, edit_header=None, edit_payload=None) -> bytes:
    """``blob`` (MDZ2) with its header JSON edited in place by
    ``edit_header(header)`` and each chunk payload replaced by
    ``edit_payload(chunk, payload)``.

    The frames are re-emitted behind the new header and the footer
    re-indexed, so every CRC and offset is valid and only the edited
    content is hostile.
    """
    layout = parse_stream(blob)
    header = dict(layout.header)
    if edit_header is not None:
        edit_header(header)
    out = io.BytesIO()
    offset = fmt.write_magic(out) + fmt.write_header(out, header)
    chunks, rolling = [], 0
    for chunk in layout.chunks:
        payload = fmt.chunk_payload(blob, chunk)
        if edit_payload is not None:
            payload = edit_payload(chunk, payload)
        entry, written = fmt.write_chunk(
            out,
            chunk.buffer_index,
            chunk.axis,
            chunk.rows,
            payload,
            offset,
            rolling,
        )
        chunks.append(entry)
        offset += written
        rolling = entry.rolling
    fmt.write_footer(out, chunks, layout.snapshots, offset)
    return out.getvalue()


def _rewrite_mdz1(blob: bytes, edit_header=None, edit_offsets=None) -> bytes:
    """``blob`` (MDZ1) with its header JSON edited in place by
    ``edit_header(header)`` and its index offsets replaced by
    ``edit_offsets(offsets, total)``; the payload is kept, so its CRC
    still holds."""
    reader = BlobReader(blob)
    magic, header = reader.read_bytes(), reader.read_json()
    index, payload = reader.read_json(), reader.read_bytes()
    if edit_header is not None:
        edit_header(header)
    if edit_offsets is not None:
        index["offsets"] = edit_offsets(index["offsets"], index["total"])
    writer = BlobWriter()
    writer.write_bytes(magic)
    writer.write_json(header)
    writer.write_json(index)
    writer.write_bytes(payload)
    return writer.getvalue()


#: Hostile MDZ1 index offsets, keyed by case: two offsets swapped, the
#: last one past the end of the payload, and a negative one.
HOSTILE_OFFSETS = {
    "swapped": lambda o, total: [o[0], o[2], o[1], *o[3:]],
    "past-payload": lambda o, total: [*o[:-1], total + 64],
    "negative": lambda o, total: [o[0], -8, *o[2:]],
}


#: Forged ``wide_n`` values (the literal count of a VQ residual
#: stream), keyed by case: negative, a string and null.
FORGED_WIDE_N = {"negative": -1, "string": "x", "null": None}

#: The message every forged-payload case raises: a forged ``wide_n``
#: trips a builtin error that the reader reports as a corrupt chunk, and a
#: level-delta blob re-coded 17 bits deep (one more than the encoder's
#: cap) is the Huffman decoder's own rejection.
FORGED_PAYLOADS = {
    **{case: "corrupt chunk" for case in FORGED_WIDE_N},
    "codebook-17-bit": "code length 17 exceeds",
}

#: Forged method tags of a chunk payload, keyed by case: a string, null,
#: and a tag without ``"m"``.
FORGED_TAGS = {
    "string": lambda tag: tag.update(m="x"),
    "null": lambda tag: tag.update(m=None),
    "missing": lambda tag: tag.pop("m"),
}


def _sections(meta, *blobs) -> bytes:
    """One JSON section followed by byte sections."""
    writer = BlobWriter()
    writer.write_json(meta)
    for blob in blobs:
        writer.write_bytes(blob)
    return writer.getvalue()


def _forge_wide_n(payload: bytes, value) -> bytes:
    """A zlib VQ chunk payload whose residual stream claims
    ``wide_n = value``; every framing layer around the field is valid."""
    chunk = BlobReader(lossless_decompress(payload))
    tag, vq = chunk.read_json(), BlobReader(chunk.read_bytes())
    head, rel = vq.read_json(), vq.read_bytes()
    stream = BlobReader(vq.read_bytes())
    meta, codes, side = (
        stream.read_json(), stream.read_bytes(), stream.read_bytes()
    )
    meta["wide_n"] = value
    residuals = _sections(meta, codes, side)
    return lossless_compress(_sections(tag, _sections(head, rel, residuals)))


def _deepen(blob: bytes, depth: int = 17) -> bytes:
    """Huffman ``blob`` re-coded as a v1 blob over the same symbols with a
    Kraft-complete codebook ``depth`` bits deep.

    The deepest code, of length ``m``, is split one bit at a time: its
    symbol ends at length ``depth`` and unused padding symbols take the
    lengths ``m + 1 .. depth``, which keeps Kraft's sum at exactly 1.
    """
    dtype_tag = BlobReader(blob).read_json().get("dt", "<i8")
    values = HuffmanCodec.decode(blob).astype(np.int64)
    symbols, inverse, counts = np.unique(
        values, return_inverse=True, return_counts=True
    )
    lengths = code_lengths(counts)
    deepest = int(np.argmax(lengths))
    pads = np.arange(lengths[deepest] + 1, depth + 1)
    lengths[deepest] = depth
    symbols = np.concatenate([symbols, symbols.max() + 1 + np.arange(pads.size)])
    lengths = np.concatenate([lengths, pads])
    codes = canonical_codes(lengths)
    writer = BlobWriter()
    writer.write_json({"n": int(values.size), "dense": None, "dt": dtype_tag})
    writer.write_array(symbols)
    writer.write_array(lengths.astype(np.uint8))
    writer.write_bytes(pack_codes(codes[inverse], lengths[inverse]))
    return writer.getvalue()


def _forge_deep_codebook(payload: bytes) -> bytes:
    """A zlib VQ chunk payload whose level-delta blob is re-coded by
    :func:`_deepen`; the residual stream is kept as it is."""
    chunk = BlobReader(lossless_decompress(payload))
    tag, vq = chunk.read_json(), BlobReader(chunk.read_bytes())
    head, rel, residuals = vq.read_json(), vq.read_bytes(), vq.read_bytes()
    return lossless_compress(
        _sections(tag, _sections(head, _deepen(rel), residuals))
    )


def _forge_tag(payload: bytes, edit) -> bytes:
    """A chunk payload whose method tag JSON was edited in place by
    ``edit(tag)``; the member payload behind it is kept as it is."""
    chunk = BlobReader(lossless_decompress(payload))
    tag, body = chunk.read_json(), chunk.read_bytes()
    edit(tag)
    return lossless_compress(_sections(tag, body))


#: Hostile header counts, keyed by case: no or negative axes or atoms,
#: more atoms than the chunks hold, and bounds or an index that disagree
#: with ``axes``.
HOSTILE_COUNTS = {
    "axes-0": lambda h: h.update(axes=0),
    "axes-negative": lambda h: h.update(axes=-2),
    "axes-short": lambda h: h.update(axes=2),
    "axes-short-index": lambda h: h.update(
        axes=2, error_bounds=h["error_bounds"][:2]
    ),
    "atoms-negative": lambda h: h.update(atoms=-4),
    "atoms-0": lambda h: h.update(atoms=0),
    "atoms-extra": lambda h: h.update(atoms=h["atoms"] + 1),
    "bounds-short": lambda h: h.update(error_bounds=h["error_bounds"][:1]),
}


@pytest.fixture
def forged_headers(trajectory) -> dict[str, tuple[str, bytes]]:
    """``{case: (field, archive)}`` for every :data:`FORGED_HEADERS` case,
    each an ``MDZ.compress`` archive of ``trajectory`` with one forged
    header field."""
    blob = MDZ(MDZConfig(buffer_size=4)).compress(trajectory)
    return {
        case: (field, _rewrite_mdz2(blob, edit_header=edit))
        for case, (field, edit) in FORGED_HEADERS.items()
    }


def _forge_first_chunk(blob: bytes, forge) -> bytes:
    """``blob`` (MDZ2) with the payload of chunk (buffer 0, axis 0)
    replaced by ``forge(payload)``."""

    def edit(chunk, payload):
        if (chunk.buffer_index, chunk.axis) != (0, 0):
            return payload
        return forge(payload)

    return _rewrite_mdz2(blob, edit_payload=edit)


@pytest.fixture
def forged_payloads(trajectory) -> dict[str, bytes]:
    """``{case: archive}`` for every :data:`FORGED_PAYLOADS` case: a VQ
    ``MDZ.compress`` archive of ``trajectory`` whose first chunk
    (buffer 0, axis 0) claims a :data:`FORGED_WIDE_N` value or carries
    its level-delta blob 17 bits deep."""
    blob = MDZ(MDZConfig(buffer_size=4, method="vq")).compress(trajectory)
    cases = {
        case: _forge_first_chunk(blob, lambda p, v=value: _forge_wide_n(p, v))
        for case, value in FORGED_WIDE_N.items()
    }
    cases["codebook-17-bit"] = _forge_first_chunk(blob, _forge_deep_codebook)
    return cases


@pytest.fixture
def forged_tags(trajectory) -> dict[str, bytes]:
    """``{case: archive}`` for every :data:`FORGED_TAGS` case: an
    ``MDZ.compress`` archive of ``trajectory`` whose first chunk (buffer
    0, axis 0) carries that forged method tag."""
    blob = MDZ(MDZConfig(buffer_size=4)).compress(trajectory)
    return {
        case: _forge_first_chunk(blob, lambda p, e=edit: _forge_tag(p, e))
        for case, edit in FORGED_TAGS.items()
    }


@pytest.fixture
def hostile_counts(mdz1_archive) -> dict[tuple[str, str], bytes]:
    """``{(generation, case): archive}`` for every :data:`HOSTILE_COUNTS`
    case: a 20 x 40 x 3 MDZ2 archive (buffer size 5) and the legacy
    MDZ1 fixture, each with one hostile header count."""
    rng = np.random.default_rng(8)
    levels = rng.integers(0, 6, (40, 3)) * 1.5
    traj = levels[None] + rng.normal(0.0, 0.02, (20, 40, 3))
    mdz2 = MDZ(MDZConfig(buffer_size=5)).compress(traj)
    cases = {}
    for case, edit in HOSTILE_COUNTS.items():
        cases["MDZ2", case] = _rewrite_mdz2(mdz2, edit_header=edit)
        cases["MDZ1", case] = _rewrite_mdz1(mdz1_archive, edit_header=edit)
    return cases
