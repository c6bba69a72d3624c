"""The ``MDZ2`` append-only chunked container format.

Unlike the legacy monolithic ``MDZ1`` layout (header + index + one payload
area, assembled in memory; now read-only), ``MDZ2`` is written
incrementally and is safe against a writer that dies mid-stream.  Layout
(all integers little-endian)::

    magic    : 4 bytes  b"MDZ2"
    header   : b"HDR2" | u32 len | JSON | u32 crc32(JSON)
    chunk*   : b"CHNK" | u32 buffer | u32 axis | u32 rows
               | u64 len | u32 crc32(payload) | payload
    footer   : b"FTRX" | u32 len | JSON index | u32 crc32(JSON)
    trailer  : u64 footer_offset | b"2ZDM"

Every chunk frame is *self-delimiting* and carries its own CRC, so a file
whose footer was never written (crashed writer, torn copy) can be
recovered by a linear scan: every fully written chunk is still decodable,
and the scan stops at the first truncated or corrupted frame.  The footer
(written at close) is an index of all chunk frames plus the final snapshot
count, giving O(1) open and random access on intact files.  Index rows
additionally carry a *rolling* CRC — ``crc32`` chained over the payload
bytes of every chunk up to and including the row's own — which lets
:func:`verify_stream` prove both per-chunk integrity and chunk ordering
in one pass.  Rows written before the rolling column existed have six
columns instead of seven and are still accepted.

Three parsing strictness levels build on the frame CRCs:

* strict (default) — an intact footer is required;
* ``recover=True`` — a missing footer is tolerated; chunks are re-indexed
  by a linear scan that stops at the first damaged frame;
* ``salvage=True`` — damaged frames are *skipped*: the scan re-syncs on
  the next chunk marker and every damaged region is reported as a
  :class:`Quarantine` entry, so a reader can account for exactly which
  chunks were lost instead of silently dropping the tail.

A chunk's payload is exactly one :class:`~repro.core.mdz.MDZAxisCompressor`
batch blob — the same bytes a legacy ``MDZ1`` payload area concatenates —
for buffer ``buffer`` of axis ``axis`` covering ``rows`` snapshots.
The full byte-level specification (with a worked hex dump) lives in
``docs/formats.md``.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import BinaryIO

from ..exceptions import ContainerFormatError

#: File magic of the streaming container.
STREAM_MAGIC = b"MDZ2"
#: Frame markers.
HEADER_MAGIC = b"HDR2"
CHUNK_MAGIC = b"CHNK"
FOOTER_MAGIC = b"FTRX"
#: End-of-file marker (magic reversed) preceded by the footer offset.
END_MAGIC = b"2ZDM"

_SECTION_HEAD = struct.Struct("<4sI")  # marker, body length
_CHUNK_HEAD = struct.Struct("<4sIIIQI")  # marker, buffer, axis, rows, len, crc
_TRAILER = struct.Struct("<Q4s")  # footer offset, end magic
_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class ChunkEntry:
    """Location and identity of one chunk frame inside a stream.

    :func:`repro.io.container.open_layout` also builds one per ``MDZ1``
    index offset; its ``crc32`` is then computed when the archive opens.
    ``rolling`` is the cumulative CRC32 of every chunk payload up to and
    including this one (``crc32(payload_k, rolling_{k-1})``, seeded with
    0); it is ``None`` for index rows written before the rolling column
    existed and for entries rebuilt by a recovery scan.
    """

    buffer_index: int
    axis: int
    rows: int
    offset: int  # absolute offset of the payload bytes
    length: int
    crc32: int
    rolling: int | None = None

    def to_row(self) -> list[int]:
        """Compact JSON representation used by the footer index."""
        row = [
            self.buffer_index,
            self.axis,
            self.rows,
            self.offset,
            self.length,
            self.crc32,
        ]
        if self.rolling is not None:
            row.append(self.rolling)
        return row

    @classmethod
    def from_row(cls, row: list) -> "ChunkEntry":
        """Rebuild an entry from a footer row (6 or 7 columns)."""
        if not 6 <= len(row) <= 7:
            raise ContainerFormatError(
                f"footer index row has {len(row)} columns; expected 6 or 7"
            )
        return cls(*(int(v) for v in row))


@dataclass(frozen=True)
class Quarantine:
    """One damaged region skipped by the salvage scan.

    ``buffer_index``/``axis``/``rows`` identify the chunk when its frame
    header survived (CRC or torn-payload damage); they are ``None`` when
    even the header was destroyed (``reason == "bad marker"``).
    """

    offset: int  # absolute file offset where the damage starts
    end: int  # offset where scanning resumed (exclusive)
    reason: str  # "crc mismatch" | "torn frame" | "bad marker"
    buffer_index: int | None = None
    axis: int | None = None
    rows: int | None = None

    def to_json(self) -> dict:
        """JSON-serializable form used by salvage reports."""
        return {
            "offset": self.offset,
            "end": self.end,
            "reason": self.reason,
            "buffer": self.buffer_index,
            "axis": self.axis,
            "rows": self.rows,
        }


@dataclass
class StreamLayout:
    """Parsed structure of an ``MDZ2`` stream, or of an ``MDZ1`` archive
    opened by :func:`repro.io.container.open_layout` (no payload
    decoding)."""

    header: dict
    chunks: list[ChunkEntry]
    snapshots: int
    #: True when the footer was present and intact; False for a layout
    #: rebuilt by the recovery scan.
    complete: bool
    #: Damaged regions skipped by the salvage scan (always empty outside
    #: salvage mode, where the first damaged frame ends parsing instead).
    quarantined: list[Quarantine] = field(default_factory=list)


def is_stream_container(blob: bytes) -> bool:
    """True when ``blob`` starts with the ``MDZ2`` magic."""
    return blob[:4] == STREAM_MAGIC


# -- writing ------------------------------------------------------------


def write_magic(fh: BinaryIO) -> int:
    fh.write(STREAM_MAGIC)
    return len(STREAM_MAGIC)


def _write_json_section(fh: BinaryIO, marker: bytes, obj: dict) -> int:
    body = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()
    fh.write(_SECTION_HEAD.pack(marker, len(body)))
    fh.write(body)
    fh.write(_U32.pack(zlib.crc32(body) & 0xFFFFFFFF))
    return _SECTION_HEAD.size + len(body) + _U32.size


def write_header(fh: BinaryIO, header: dict) -> int:
    """Write the stream header frame; returns bytes written."""
    return _write_json_section(fh, HEADER_MAGIC, header)


def write_chunk(
    fh: BinaryIO,
    buffer_index: int,
    axis: int,
    rows: int,
    payload: bytes,
    offset: int,
    rolling: int | None = None,
) -> tuple[ChunkEntry, int]:
    """Append one chunk frame at absolute position ``offset``.

    ``rolling`` is the cumulative payload CRC32 *before* this chunk (the
    previous entry's ``rolling``, or 0 for the first chunk); pass ``None``
    to omit the rolling column from the resulting entry.  Returns the
    index entry and the number of bytes written.
    """
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    fh.write(
        _CHUNK_HEAD.pack(
            CHUNK_MAGIC, buffer_index, axis, rows, len(payload), crc
        )
    )
    fh.write(payload)
    entry = ChunkEntry(
        buffer_index=buffer_index,
        axis=axis,
        rows=rows,
        offset=offset + _CHUNK_HEAD.size,
        length=len(payload),
        crc32=crc,
        rolling=(
            None
            if rolling is None
            else zlib.crc32(payload, rolling) & 0xFFFFFFFF
        ),
    )
    return entry, _CHUNK_HEAD.size + len(payload)


def write_footer(
    fh: BinaryIO,
    chunks: list[ChunkEntry],
    snapshots: int,
    footer_offset: int,
) -> int:
    """Write the footer index and the end trailer; returns bytes written."""
    body = {
        "snapshots": snapshots,
        "chunks": [entry.to_row() for entry in chunks],
    }
    written = _write_json_section(fh, FOOTER_MAGIC, body)
    fh.write(_TRAILER.pack(footer_offset, END_MAGIC))
    return written + _TRAILER.size


# -- parsing ------------------------------------------------------------


def _read_json_section(
    blob: bytes, offset: int, marker: bytes, what: str
) -> tuple[dict, int]:
    """Parse one JSON frame; returns (object, offset past the frame)."""
    end = offset + _SECTION_HEAD.size
    if end > len(blob):
        raise ContainerFormatError(f"truncated container: missing {what}")
    found, length = _SECTION_HEAD.unpack_from(blob, offset)
    if found != marker:
        raise ContainerFormatError(
            f"bad {what} marker {found!r}; expected {marker!r}"
        )
    body_end = end + length
    if body_end + _U32.size > len(blob):
        raise ContainerFormatError(f"truncated container: short {what}")
    body = blob[end:body_end]
    (stored_crc,) = _U32.unpack_from(blob, body_end)
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise ContainerFormatError(f"{what} checksum mismatch")
    try:
        obj = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        raise ContainerFormatError(f"corrupt {what} JSON: {exc}") from exc
    return obj, body_end + _U32.size


def _parse_footer(blob: bytes, body_start: int) -> StreamLayout | None:
    """Parse header + footer of an intact file; None if the footer is bad."""
    try:
        tail = blob[-_TRAILER.size :]
        footer_offset, end_magic = _TRAILER.unpack(tail)
        if end_magic != END_MAGIC:
            return None
        if not body_start <= footer_offset < len(blob):
            return None
        footer, after = _read_json_section(
            blob, footer_offset, FOOTER_MAGIC, "footer"
        )
        chunks = [ChunkEntry.from_row(row) for row in footer["chunks"]]
        snapshots = int(footer["snapshots"])
    except (ContainerFormatError, struct.error, KeyError, TypeError, ValueError):
        return None
    return StreamLayout(
        header={},
        chunks=chunks,
        snapshots=snapshots,
        complete=True,
    )


def _scan_chunks(
    blob: bytes, offset: int, salvage: bool = False
) -> tuple[list[ChunkEntry], list[Quarantine]]:
    """Linear recovery scan: every intact chunk frame, in file order.

    With ``salvage=False`` the scan stops at the first frame that is
    truncated, fails its CRC, or does not carry the chunk marker (a torn
    footer counts as end-of-stream).  With ``salvage=True`` a damaged
    frame is recorded as a :class:`Quarantine` region and the scan
    re-syncs on the next chunk marker, so intact frames *after* the
    damage are still indexed.  Returns ``(chunks, quarantined)``; the
    quarantine list is empty unless ``salvage`` is set.
    """
    chunks: list[ChunkEntry] = []
    quarantined: list[Quarantine] = []
    pos = offset
    size = len(blob)
    while pos + _CHUNK_HEAD.size <= size:
        marker, buffer_index, axis, rows, length, crc = _CHUNK_HEAD.unpack_from(
            blob, pos
        )
        reason = None
        ident: tuple[int | None, int | None, int | None] = (None, None, None)
        if marker == FOOTER_MAGIC:
            # A footer frame whose trailer was torn off: end of the chunk
            # area, not damage.
            pos = size
            break
        if marker != CHUNK_MAGIC:
            reason = "bad marker"
        else:
            payload_start = pos + _CHUNK_HEAD.size
            payload_end = payload_start + length
            ident = (buffer_index, axis, rows)
            if payload_end > size:
                reason = "torn frame"  # never fully written
            elif (
                zlib.crc32(blob[payload_start:payload_end]) & 0xFFFFFFFF
                != crc
            ):
                reason = "crc mismatch"
        if reason is None:
            chunks.append(
                ChunkEntry(
                    buffer_index=buffer_index,
                    axis=axis,
                    rows=rows,
                    offset=payload_start,
                    length=length,
                    crc32=crc,
                )
            )
            pos = payload_end
            continue
        if not salvage:
            break
        resync = blob.find(CHUNK_MAGIC, pos + 1)
        end = resync if resync != -1 else size
        quarantined.append(
            Quarantine(
                offset=pos,
                end=end,
                reason=reason,
                buffer_index=ident[0],
                axis=ident[1],
                rows=ident[2],
            )
        )
        pos = end
    if salvage and pos < size:
        # Trailing bytes too short to hold even a frame header: a torn
        # tail, reported so salvage accounting never loses data silently.
        quarantined.append(
            Quarantine(offset=pos, end=size, reason="torn frame")
        )
    return chunks, quarantined


def parse_stream(
    blob: bytes, recover: bool = False, salvage: bool = False
) -> StreamLayout:
    """Parse an ``MDZ2`` stream into its layout.

    With ``recover=False`` (the default) a stream without an intact footer
    raises :class:`ContainerFormatError` — a safety net against silently
    reading a truncated copy.  With ``recover=True`` the chunk frames are
    re-indexed by a linear scan and every fully written chunk up to the
    first damaged frame survives.  With ``salvage=True`` (implies
    ``recover``) damaged frames are skipped instead of ending the scan:
    they land in ``layout.quarantined``, and — when the footer *is*
    intact — indexed chunks whose payload fails its CRC are likewise
    moved to quarantine rather than raising at read time.

    Raises :class:`ContainerFormatError` on a bad magic, a damaged
    header, or (strict mode only) a missing footer.
    """
    if len(blob) == 0:
        raise ContainerFormatError("container is empty (zero-length input)")
    if not is_stream_container(blob):
        raise ContainerFormatError(
            f"bad container magic {blob[:4]!r}; expected {STREAM_MAGIC!r}"
        )
    header, body_start = _read_json_section(
        blob, len(STREAM_MAGIC), HEADER_MAGIC, "header"
    )
    layout = _parse_footer(blob, body_start)
    if layout is not None:
        layout.header = header
        if salvage:
            _quarantine_indexed(blob, layout)
        return layout
    if not (recover or salvage):
        raise ContainerFormatError(
            "stream has no intact footer (truncated or crashed writer); "
            "open with recover=True to index the surviving chunks"
        )
    chunks, quarantined = _scan_chunks(blob, body_start, salvage=salvage)
    snapshots = sum(c.rows for c in chunks if c.axis == 0)
    return StreamLayout(
        header=header,
        chunks=chunks,
        snapshots=snapshots,
        complete=False,
        quarantined=quarantined,
    )


def _quarantine_indexed(blob: bytes, layout: StreamLayout) -> None:
    """Move footer-indexed chunks with damaged bytes into quarantine.

    Covers the intact-footer-but-corrupted-file case (bit rot under a
    surviving index).  Two checks per entry: the payload is re-hashed
    against the indexed CRC, and the frame *header* preceding it must
    agree with the index (magic, identity, length, CRC) — payload CRCs
    do not cover header bytes, so without this check damage to a frame
    header would be invisible until a footer-less recovery scan needs
    that header.  Failures are quarantined in place, so salvage-mode
    readers skip them instead of raising on first touch.
    """
    survivors: list[ChunkEntry] = []
    for entry in layout.chunks:
        payload = blob[entry.offset : entry.offset + entry.length]
        reason = None
        if len(payload) != entry.length:
            reason = "torn frame"
        elif zlib.crc32(payload) & 0xFFFFFFFF != entry.crc32:
            reason = "crc mismatch"
        else:
            head_start = entry.offset - _CHUNK_HEAD.size
            if head_start < 0:
                reason = "frame header mismatch"
            else:
                marker, b, a, rows, length, crc = _CHUNK_HEAD.unpack_from(
                    blob, head_start
                )
                if (marker, b, a, rows, length, crc) != (
                    CHUNK_MAGIC,
                    entry.buffer_index,
                    entry.axis,
                    entry.rows,
                    entry.length,
                    entry.crc32,
                ):
                    reason = "frame header mismatch"
        if reason is None:
            survivors.append(entry)
        else:
            layout.quarantined.append(
                Quarantine(
                    offset=entry.offset - _CHUNK_HEAD.size,
                    end=entry.offset + entry.length,
                    reason=reason,
                    buffer_index=entry.buffer_index,
                    axis=entry.axis,
                    rows=entry.rows,
                )
            )
    layout.chunks = survivors


# -- verification and repair ---------------------------------------------


def verify_stream(blob: bytes) -> dict:
    """Full integrity audit of an ``MDZ2`` stream; never raises on damage.

    Checks, in order: magic, header frame CRC, footer presence and CRC,
    every chunk payload CRC, and — when the index carries the rolling
    column — the chained rolling checksum (which additionally proves the
    chunks are the ones the index committed, in the committed order).

    Returns a JSON-serializable report::

        {"format": "MDZ2", "intact": bool, "header": bool,
         "footer": "intact" | "missing", "chunks": int,
         "snapshots": int, "bad_chunks": [quarantine dicts],
         "rolling": "ok" | "absent" | "mismatch",
         "errors": [str, ...], "warnings": [str, ...]}

    ``intact`` is True only when the footer is present, every chunk
    checks out, and the rolling chain (when present) matches.  The
    rolling check stops at the first divergence (once the chain breaks,
    every later link mismatches by construction — one error says it
    all).  ``warnings`` flags conditions that are self-consistent but
    lossy to decode, e.g. a repaired archive keeping a buffer some of
    whose axis chunks are gone.

    Raises :class:`ContainerFormatError` only for inputs that are not an
    ``MDZ2`` stream at all (wrong magic, empty input, destroyed header) —
    everything downstream of a parseable header is reported, not raised.
    """
    report: dict = {
        "format": "MDZ2",
        "intact": False,
        "header": False,
        "footer": "missing",
        "chunks": 0,
        "snapshots": 0,
        "bad_chunks": [],
        "rolling": "absent",
        "errors": [],
        "warnings": [],
    }
    layout = parse_stream(blob, salvage=True)
    report["header"] = True
    report["footer"] = "intact" if layout.complete else "missing"
    report["chunks"] = len(layout.chunks)
    report["snapshots"] = layout.snapshots
    report["bad_chunks"] = [q.to_json() for q in layout.quarantined]
    if not layout.complete:
        report["errors"].append(
            "no intact footer (truncated file or crashed writer)"
        )
    for q in layout.quarantined:
        where = (
            f"chunk (buffer {q.buffer_index}, axis {q.axis})"
            if q.buffer_index is not None
            else f"region [{q.offset}, {q.end})"
        )
        report["errors"].append(f"{where}: {q.reason}")
    if layout.complete and any(
        c.rolling is not None for c in layout.chunks
    ):
        rolling = 0
        ok = True
        for entry in layout.chunks:
            payload = blob[entry.offset : entry.offset + entry.length]
            rolling = zlib.crc32(payload, rolling) & 0xFFFFFFFF
            if entry.rolling is not None and entry.rolling != rolling:
                ok = False
                report["errors"].append(
                    f"rolling checksum chain breaks at chunk (buffer "
                    f"{entry.buffer_index}, axis {entry.axis}): stored "
                    f"{entry.rolling:#010x}, computed {rolling:#010x}"
                )
                break  # every later link mismatches by construction
        report["rolling"] = "ok" if ok else "mismatch"
    present: dict[int, set[int]] = {}
    for entry in layout.chunks:
        present.setdefault(entry.buffer_index, set()).add(entry.axis)
    n_axes = int(layout.header.get("axes", 0) or 0)
    if n_axes:
        for b in sorted(present):
            missing = sorted(set(range(n_axes)) - present[b])
            if missing:
                report["warnings"].append(
                    f"buffer {b} is incomplete (axes {missing} missing): "
                    "its snapshots are not decodable"
                )
    report["intact"] = (
        layout.complete
        and not layout.quarantined
        and report["rolling"] != "mismatch"
    )
    return report


def repair_stream(blob: bytes) -> tuple[bytes, dict]:
    """Rebuild a clean ``MDZ2`` container from a damaged one.

    Salvage-parses ``blob``, keeps every intact chunk frame, and writes a
    fresh container (same header, re-framed chunks with fresh rolling
    checksums, new footer indexing exactly the survivors).  The repaired
    file opens strictly; its footer snapshot count covers only surviving
    axis-0 chunks, so nothing claims data that is gone.

    Returns ``(repaired_bytes, report)`` where ``report`` lists the kept
    chunk count, the quarantined regions dropped, and the snapshot
    accounting delta against the original footer's claim (when one
    survived).

    Raises :class:`ContainerFormatError` when the header is damaged
    beyond salvage (nothing can be rebuilt without it).
    """
    layout = parse_stream(blob, salvage=True)
    out = io.BytesIO()
    offset = write_magic(out)
    offset += write_header(out, layout.header)
    entries: list[ChunkEntry] = []
    rolling = 0
    for entry in layout.chunks:
        payload = blob[entry.offset : entry.offset + entry.length]
        new_entry, written = write_chunk(
            out,
            entry.buffer_index,
            entry.axis,
            entry.rows,
            payload,
            offset,
            rolling,
        )
        rolling = new_entry.rolling
        entries.append(new_entry)
        offset += written
    snapshots = sum(e.rows for e in entries if e.axis == 0)
    write_footer(out, entries, snapshots, offset)
    claimed = layout.snapshots if layout.complete else None
    report = {
        "chunks_kept": len(entries),
        "chunks_dropped": len(layout.quarantined),
        "dropped": [q.to_json() for q in layout.quarantined],
        "snapshots": snapshots,
        "snapshots_claimed": claimed,
        "footer_was_intact": layout.complete,
    }
    return out.getvalue(), report


def chunk_payload(blob: bytes, entry: ChunkEntry) -> bytes:
    """Extract and CRC-verify one chunk's payload bytes."""
    payload = blob[entry.offset : entry.offset + entry.length]
    if len(payload) != entry.length:
        raise ContainerFormatError(
            f"chunk (buffer {entry.buffer_index}, axis {entry.axis}) "
            "extends past the end of the container"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != entry.crc32:
        raise ContainerFormatError(
            f"chunk (buffer {entry.buffer_index}, axis {entry.axis}) "
            "checksum mismatch: the container is corrupted"
        )
    return payload
