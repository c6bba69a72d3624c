"""The ``.mdz`` container formats.

Two container generations, one reader:

* ``MDZ2`` — the append-only chunked layout (see
  :mod:`repro.stream.format`).  It is the only format anything writes:
  :func:`write_container` feeds a whole trajectory through a serial
  :class:`repro.stream.writer.StreamingWriter`, so ``MDZ.compress``,
  ``mdz compress``, ``/v1/compress`` and ``compress_fields`` produce the
  same chunked, CRC-checked, recoverable archives as ``mdz stream``.

* ``MDZ1`` — the original monolithic layout, now legacy and read-only.
  All little-endian, sections framed by :mod:`repro.serde`::

      magic   : 4 bytes  b"MDZ1"
      header  : JSON     {snapshots, atoms, axes, dtype, buffer_size,
                          error_bounds (per axis), scale, sequence, method}
      index   : JSON     byte offsets of every (buffer, axis) payload within
                          the payload area, buffer-major
      payload : BYTES    concatenation of the per-buffer per-axis blobs

:func:`open_layout` sniffs the magic and opens either generation as a
:class:`repro.stream.format.StreamLayout` (an ``MDZ1`` index becomes one
chunk entry per offset), and :class:`repro.stream.reader.StreamingReader`
reads that layout: :func:`read_container`, :func:`read_container_batch`
and :func:`read_container_info` are one reader call each, with one
grouped decode, one random-access rule and one set of untrusted-input
checks for both generations.  Both record the same header keys, and
:func:`decode_sessions` rebuilds the per-axis decode sessions from them.
"""

from __future__ import annotations

import io
import zlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from ..baselines.api import SessionMeta
from ..core.config import MDZConfig
from ..core.mdz import MDZAxisCompressor, decompress_chunks
from ..exceptions import (
    CompressionError,
    ConfigurationError,
    ContainerFormatError,
    DecompressionError,
)
from ..serde import BlobReader

if TYPE_CHECKING:
    from ..stream.format import StreamLayout

MAGIC = b"MDZ1"


def container_version(blob: bytes) -> int:
    """The format generation of a container blob: 1 or 2.

    Raises :class:`ContainerFormatError` for empty input or when the
    blob carries neither magic.  ``MDZ2`` files lead with their raw
    magic; ``MDZ1`` blobs frame it as the first :mod:`repro.serde`
    section.
    """
    from ..stream.format import is_stream_container

    if len(blob) == 0:
        raise ContainerFormatError(
            "container is empty (zero-length input)"
        )
    if is_stream_container(blob):
        return 2
    try:
        magic = BlobReader(blob).read_bytes()
    except DecompressionError as exc:
        raise ContainerFormatError(
            f"bad container magic {blob[:4]!r}: not an .mdz container ({exc})"
        ) from exc
    if magic != MAGIC:
        raise ContainerFormatError(
            f"bad container magic {magic[:16]!r}; expected {MAGIC!r} or MDZ2"
        )
    return 1


def write_container(positions: np.ndarray, config: MDZConfig) -> bytes:
    """Compress a (snapshots, atoms, axes) array into an ``MDZ2`` container.

    A value-range-relative bound is resolved against each axis's range
    over the whole trajectory (a streaming producer only sees the first
    buffer); the snapshots then go through a serial
    :class:`~repro.stream.writer.StreamingWriter`.
    """
    from ..stream.writer import StreamingWriter

    positions = np.asarray(positions)
    if positions.ndim != 3:
        raise CompressionError(
            f"expected a (snapshots, atoms, axes) array, got {positions.shape}"
        )
    if positions.shape[0] == 0 or positions.shape[1] == 0:
        raise CompressionError("cannot compress an empty trajectory")
    # max/min in the source dtype, differenced in float64: the same value
    # a float64 copy of the trajectory gives, without making that copy.
    bounds = [
        config.absolute_bound(float(axis.max()) - float(axis.min()))
        for axis in np.moveaxis(positions, 2, 0)
    ]
    sink = io.BytesIO()
    with StreamingWriter(sink, config, error_bounds=bounds) as writer:
        writer.feed_many(positions)
    return sink.getvalue()


#: Header key, the :class:`MDZConfig` field it restores, and its type.
_HEADER_CONFIG = (
    ("buffer_size", "buffer_size", int),
    ("scale", "quantization_scale", int),
    ("sequence", "sequence_mode", str),
    ("method", "method", str),
    ("members", "adp_members", tuple),  # recorded for a non-default pool
    ("lossless", "lossless_backend", str),
)


def check_counts(
    header: dict, chunk_axes: Iterable[int] = (), chunks: int | None = None
) -> None:
    """Reject header counts a reader would loop or allocate on.

    Both generations run this before anything loops over the axes or
    allocates an output: ``atoms`` and ``axes`` must be at least 1, and
    ``error_bounds`` must hold one bound per axis.  The index must agree
    with ``axes``: an intact ``MDZ2`` footer passes the axis of every
    indexed chunk as ``chunk_axes``, and none may reach ``axes``; an
    ``MDZ1`` index passes its offset count as ``chunks``, which must be
    ``ceil(snapshots / buffer_size) * axes``.  Headers are untrusted
    input: every violation raises :class:`ContainerFormatError` naming
    the field.
    """

    def count(key, read=int):
        try:
            return read(header[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ContainerFormatError(
                f"container header field {key!r} is missing or invalid: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    atoms, axes = count("atoms"), count("axes")
    if atoms < 1 or axes < 1:
        raise ContainerFormatError(
            f"header fields 'atoms' ({atoms}) and 'axes' ({axes}) must be "
            ">= 1"
        )
    if count("error_bounds", len) != axes:
        raise ContainerFormatError(
            f"header field 'error_bounds' does not hold one bound per axis "
            f"({axes} axes)"
        )
    if max(chunk_axes, default=-1) >= axes:
        raise ContainerFormatError(
            f"the index holds chunks of axes beyond header field 'axes' "
            f"({axes})"
        )
    if chunks is not None:
        snapshots, size = count("snapshots"), count("buffer_size")
        if snapshots < 0 or size < 1 or chunks != -(-snapshots // size) * axes:
            raise ContainerFormatError(
                f"the index holds {chunks} offsets, which header fields "
                f"'snapshots' ({snapshots}), 'buffer_size' ({size}) and "
                f"'axes' ({axes}) contradict"
            )


def decode_sessions(header: dict) -> list[MDZAxisCompressor]:
    """One decode session per axis, rebuilt from a container header.

    Both generations record the keys read here: ``atoms``,
    ``buffer_size``, ``error_bounds``, ``scale``, ``sequence``,
    ``method``, ``lossless`` and (for a non-default ADP pool)
    ``members``.  Headers are untrusted input: a field that is missing,
    of the wrong type or invalid raises :class:`ContainerFormatError`
    naming it.
    """
    # Absolute per-axis bounds travel in begin().
    config = MDZConfig(error_bound=1.0, error_bound_mode="absolute")
    try:
        for key, name, cast in _HEADER_CONFIG:
            if key != "members" or key in header:
                # replace() re-validates, so a bad value names its key.
                config = replace(config, **{name: cast(header[key])})
        key = "atoms"
        meta = SessionMeta(n_atoms=int(header[key]))
        key = "error_bounds"
        sessions = []
        for bound in header[key]:
            session = MDZAxisCompressor(config)
            session.begin(float(bound), meta)
            sessions.append(session)
    except (
        KeyError, TypeError, ValueError, ConfigurationError, CompressionError
    ) as exc:
        # CompressionError: begin() rejects a zero or non-finite bound.
        raise ContainerFormatError(
            f"container header field {key!r} is missing or invalid: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return sessions


#: Decoded values (rows x atoms x axes) that close a read group.  The
#: grouped loop decodes consecutive buffers with one entropy pass until
#: they hold this many values: about three copper-b buffers, while one
#: pt buffer is a group of its own.  Larger groups run fewer rounds but
#: hold more decoded symbols at once (see docs/architecture.md).
GROUP_VALUES = 1 << 18


def decode_group(
    sessions: list[MDZAxisCompressor],
    buffers: Sequence[tuple[np.ndarray, Sequence[bytes]]],
) -> Iterator[np.ndarray]:
    """Decode buffers with one entropy pass; yields each when filled.

    ``buffers`` holds ``(out, chunks)`` pairs: ``out`` is the
    ``(rows, atoms, axes)`` array to fill, ``chunks`` the buffer's
    per-axis payloads.  Buffers are reconstructed in order, so a
    group's buffer 0 sets the MT references its later buffers read.
    """
    arrays = decompress_chunks(
        (sessions[a], chunk)
        for _, chunks in buffers
        for a, chunk in enumerate(chunks)
    )
    for out, chunks in buffers:
        for a in range(len(chunks)):
            array = next(arrays)
            if array.shape != out.shape[:2]:
                raise DecompressionError(
                    f"a chunk decodes to shape {array.shape}; the header "
                    f"says {out.shape[:2]} (rows, atoms)"
                )
            out[:, :, a] = array
        yield out


def decode_buffers(
    sessions: list[MDZAxisCompressor],
    buffers: Iterable[tuple[np.ndarray, Sequence[bytes]]],
) -> Iterator[np.ndarray]:
    """The grouped loop every full read goes through.

    Consumes ``buffers`` (as for :func:`decode_group`) lazily and cuts
    it into groups of consecutive buffers holding at least
    :data:`GROUP_VALUES` decoded values (the last group may hold fewer);
    yields each buffer's array as it is filled.
    """
    group: list[tuple[np.ndarray, Sequence[bytes]]] = []
    values = 0
    for out, chunks in buffers:
        group.append((out, chunks))
        values += out.size
        if values >= GROUP_VALUES:
            yield from decode_group(sessions, group)
            group, values = [], 0
    if group:
        yield from decode_group(sessions, group)


def open_layout(
    blob: bytes, recover: bool = False, salvage: bool = False
) -> StreamLayout:
    """The chunk layout of a container of either generation.

    ``MDZ2`` is parsed by :func:`repro.stream.format.parse_stream` with
    the given strictness.  ``MDZ1`` was written in one piece and has no
    frames to recover, so it opens strictly whatever ``recover`` and
    ``salvage`` say.  An input that is neither raises
    :class:`ContainerFormatError` naming its magic.
    """
    from ..stream.format import parse_stream

    if container_version(blob) == 2:
        return parse_stream(blob, recover=recover, salvage=salvage)
    return _mdz1_layout(blob)


def _mdz1_layout(blob: bytes) -> StreamLayout:
    """An ``MDZ1`` container as a complete chunk layout.

    Offset ``i`` of the buffer-major index is buffer ``i // axes``, axis
    ``i % axes``; rows come from the header's ``snapshots`` and
    ``buffer_size``.  Untrusted input: the payload must match the index
    total and CRC32, the header the offset count (:func:`check_counts`),
    and each offset must lie inside the payload, not before the one
    preceding it; else :class:`ContainerFormatError`.
    """
    from ..stream.format import ChunkEntry, StreamLayout

    reader = BlobReader(blob)
    try:
        reader.read_bytes()  # the magic, checked by container_version
        header = reader.read_json()
        index = reader.read_json()
        payload = reader.read_bytes()
    except DecompressionError as exc:
        # Framing-level failures (short frames, wrong tags) mean the file
        # itself is damaged, not one compressed payload inside it.
        raise ContainerFormatError(
            f"truncated or malformed container: {exc}"
        ) from exc
    base = reader.position - len(payload)
    try:
        total = int(index["total"])
        offsets = [int(o) for o in index["offsets"]]
        crc = index.get("crc32")
        crc = None if crc is None else int(crc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerFormatError(f"malformed container index: {exc}") from exc
    if total != len(payload):
        raise ContainerFormatError(
            f"payload length {len(payload)} does not match index total "
            f"{total}"
        )
    if crc is not None:
        actual = zlib.crc32(payload) & 0xFFFFFFFF
        if actual != crc:
            raise ContainerFormatError(
                f"payload checksum mismatch (stored {crc:#010x}, "
                f"computed {actual:#010x}): the container is corrupted"
            )
    check_counts(header, chunks=len(offsets))
    axes, size = int(header["axes"]), int(header["buffer_size"])
    snapshots = int(header["snapshots"])
    view = memoryview(payload)
    chunks = []
    for i, (start, end) in enumerate(zip(offsets, offsets[1:] + [total])):
        if not 0 <= start <= end <= total:
            raise ContainerFormatError(
                f"index offset {i} ({start}) is out of order or outside "
                f"the {total}-byte payload"
            )
        buffer_index = i // axes
        chunks.append(
            ChunkEntry(
                buffer_index=buffer_index,
                axis=i % axes,
                rows=min(size, snapshots - buffer_index * size),
                offset=base + start,
                length=end - start,
                crc32=zlib.crc32(view[start:end]) & 0xFFFFFFFF,
            )
        )
    return StreamLayout(
        header=header, chunks=chunks, snapshots=snapshots, complete=True
    )


@dataclass(frozen=True)
class ContainerInfo:
    """Structural summary of a container (no payload decoding).

    ``methods_per_axis`` maps, per axis, the method name to the number of
    buffers coded with it — which is how ADP's per-axis choices (Table VI)
    can be inspected post hoc.
    """

    snapshots: int
    atoms: int
    axes: int
    buffer_size: int
    error_bounds: tuple[float, ...]
    method: str
    sequence: str
    n_buffers: int
    payload_bytes: int
    methods_per_axis: tuple[dict[str, int], ...]
    #: The recorded ADP candidate pool; ``None`` for fixed-method
    #: archives and legacy default-pool archives (which omit the key).
    members: tuple[str, ...] | None = None


def read_container(blob: bytes) -> np.ndarray:
    """Decompress a full container (``MDZ1`` or ``MDZ2``) to float64."""
    from ..stream.reader import StreamingReader

    return StreamingReader(blob).read_all()


def read_container_info(blob: bytes) -> ContainerInfo:
    """Inspect a container: header fields plus the per-buffer method tags."""
    from ..stream.reader import StreamingReader

    return StreamingReader(blob).container_info()


def read_container_batch(blob: bytes, batch_index: int) -> np.ndarray:
    """Decode one buffer (all axes) from a container.

    The target decodes alone when no member that can code it reads the
    session reference (fixed VQ, VQT or interp, or an ADP pool of
    those); otherwise buffer 0 joins the target's entropy pass to
    rebuild the MT/bitadaptive reference.
    """
    from ..stream.reader import StreamingReader

    return StreamingReader(blob).read_buffer(batch_index)


def verify_container(blob: bytes) -> dict:
    """Integrity audit of a container of either generation, no decoding.

    Dispatches on the magic: ``MDZ2`` blobs go through
    :func:`repro.stream.format.verify_stream` (per-chunk CRCs, rolling
    checksum chain, footer/index agreement); an ``MDZ1`` blob is intact
    when it opens as the layout every reader uses (frame structure,
    index total, whole-payload CRC32, header counts, offsets in order
    inside the payload).

    Returns a JSON-serialisable report.  Common keys:

    * ``format`` — ``"MDZ1"`` or ``"MDZ2"``;
    * ``intact`` — ``True`` only when every check passed;
    * ``errors`` — human-readable failure descriptions (empty if intact).

    Never raises for damaged input: structural failures are folded into
    the report (``intact=False``).  Only an input that is not a
    container at all (empty, or neither magic) still raises
    :class:`ContainerFormatError`, mirroring :func:`container_version`.
    """
    from ..stream.format import verify_stream

    if container_version(blob) == 2:
        return verify_stream(blob)
    report: dict = {
        "format": "MDZ1",
        "intact": False,
        "header": False,
        "chunks": 0,
        "snapshots": 0,
        "errors": [],
    }
    try:
        layout = _mdz1_layout(blob)
    except ContainerFormatError as exc:
        report["errors"].append(str(exc))
        return report
    report.update(
        intact=True,
        header=True,
        chunks=len(layout.chunks),
        snapshots=layout.snapshots,
    )
    return report
