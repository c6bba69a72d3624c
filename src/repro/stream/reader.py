"""The one container reader: ``MDZ2`` streams and legacy ``MDZ1`` archives.

:func:`repro.io.container.open_layout` opens either generation as a
chunk layout (an ``MDZ1`` index becomes one chunk entry per offset), and
everything below reads that layout.  Three access patterns:

* :meth:`StreamingReader.read_all` — sequential full decode, sessions
  carried across buffers exactly like the writer's;
* :meth:`StreamingReader.read_buffer` — random access to one buffer.
  When no member that can code a buffer reads the session reference
  (:attr:`~repro.core.mdz.MDZAxisCompressor.supports_random_access`:
  fixed VQ, VQT or interp, or an ADP pool of those), the buffer decodes
  alone; otherwise buffer 0 joins its group to restore the reference;
* :meth:`StreamingReader.iter_buffers` — incremental consumption with
  bounded memory (the analysis-side half of the in-situ pipeline).

Every read decodes in groups: consecutive buffers share one Huffman
decode pass (:func:`repro.io.container.decode_buffers`), up to
:data:`repro.io.container.GROUP_VALUES` decoded values per group, which
also bounds what :meth:`~StreamingReader.iter_buffers` holds at once.

Opened with ``recover=True``, a footer-less ``MDZ2`` file (crashed
writer, truncated copy) is re-indexed by a linear scan and every
*complete* buffer — all axes present and CRC-intact — is readable up to
the first damaged frame.

Opened with ``salvage=True``, damaged frames are *skipped* instead of
ending the scan: quarantined chunks are excluded from the index, every
decodable buffer anywhere in the file is readable, and
:meth:`StreamingReader.salvage_report` accounts for exactly which
snapshot indices were lost.  The salvage guarantees (what "lost" means)
are documented in ``docs/architecture.md``.  An ``MDZ1`` archive has no
frames to recover, so it opens strictly whatever the flags say.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from ..core.mdz import forged_fields
from ..core.registry import METHOD_NAMES
from ..exceptions import ContainerFormatError
from ..io.container import (
    ContainerInfo,
    check_counts,
    decode_buffers,
    decode_group,
    decode_sessions,
    open_layout,
)
from ..serde import BlobReader
from ..sz.lossless import lossless_decompress
from . import format as fmt


@dataclass(frozen=True)
class BufferStatus:
    """Salvage-time status of one buffer of the stream.

    ``rows_assumed`` is True when every chunk of the buffer was lost and
    the row count is the header's ``buffer_size`` (exact for all buffers
    except a partial final one, which a salvage report flags through
    ``SalvageReport.truncated_tail`` anyway).
    """

    index: int
    rows: int
    rows_assumed: bool
    present_axes: tuple[int, ...]
    decodable: bool
    #: Global snapshot range ``[start, stop)`` this buffer covers.
    snapshot_range: tuple[int, int]

    def to_json(self) -> dict:
        """JSON-serializable form used by ``mdz verify --json``."""
        return {
            "buffer": self.index,
            "rows": self.rows,
            "rows_assumed": self.rows_assumed,
            "present_axes": list(self.present_axes),
            "decodable": self.decodable,
            "snapshots": list(self.snapshot_range),
        }


@dataclass
class SalvageReport:
    """Exact accounting of what a salvage read can and cannot recover.

    The contract: every snapshot the stream ever contained is either

    * *readable* — its buffer is decodable and its global index appears
      in one of the ``buffers`` entries with ``decodable=True``; or
    * *lost* — its global index is listed in ``lost_snapshots``; or
    * part of the *unaccounted tail* — only when ``truncated_tail`` is
      True (footer-less files, where frames after the last surviving
      byte are unknowable).

    There is no fourth state: ``readable_snapshots +
    len(lost_snapshots)`` equals the stream's snapshot count whenever
    the footer survived (``expected_snapshots`` is then that count).
    """

    path: str | None
    footer_intact: bool
    #: The footer's snapshot-count claim; None when the footer was lost.
    expected_snapshots: int | None
    readable_snapshots: int
    #: Global indices of snapshots in undecodable buffers, ascending.
    lost_snapshots: list[int]
    buffers: list[BufferStatus]
    quarantined: list[fmt.Quarantine]
    #: True when the stream may have continued past the surviving bytes
    #: (no footer), i.e. zero or more trailing snapshots are unaccounted.
    truncated_tail: bool

    @property
    def intact(self) -> bool:
        """True when nothing was lost and the footer survived."""
        return (
            self.footer_intact
            and not self.lost_snapshots
            and not self.quarantined
        )

    def to_json(self) -> dict:
        """JSON-serializable form (written by ``mdz repair --report``)."""
        return {
            "path": self.path,
            "footer_intact": self.footer_intact,
            "expected_snapshots": self.expected_snapshots,
            "readable_snapshots": self.readable_snapshots,
            "lost_snapshots": self.lost_snapshots,
            "truncated_tail": self.truncated_tail,
            "intact": self.intact,
            "buffers": [b.to_json() for b in self.buffers],
            "quarantined": [q.to_json() for q in self.quarantined],
        }


class StreamingReader:
    """Random-access and sequential decoder for one container, ``MDZ2``
    or legacy ``MDZ1``.

    Parameters
    ----------
    source:
        Container bytes, or a path to read them from.
    recover:
        Accept ``MDZ2`` files without an intact footer by scanning for
        surviving chunk frames.  Off by default so silent truncation is
        an error.
    salvage:
        Implies ``recover``; additionally *skip* damaged chunk frames
        (quarantine) instead of stopping at the first one, making every
        decodable buffer in the file readable and
        :meth:`salvage_report` available with full loss accounting.

    Raises
    ------
    ContainerFormatError
        For empty input, a bad magic, a damaged header, a header missing
        required fields or with counts the index contradicts (see
        :func:`repro.io.container.check_counts`), an ``MDZ1`` index or
        payload that fails its checks, or (strict mode) a missing
        ``MDZ2`` footer.  When ``source`` is a path, the message names
        it.
    OSError
        When the path cannot be read.
    """

    def __init__(
        self,
        source: bytes | str | Path,
        recover: bool = False,
        salvage: bool = False,
    ) -> None:
        if isinstance(source, (str, Path)):
            self._path: str | None = str(source)
            self._blob = Path(source).read_bytes()
        else:
            self._path = None
            self._blob = bytes(source)
        self._salvage = bool(salvage)
        try:
            self._layout = open_layout(
                self._blob, recover=recover or salvage, salvage=salvage
            )
        except struct.error as exc:
            # Defensive: framing bugs must never leak struct internals.
            raise self._named(
                ContainerFormatError(f"not a valid MDZ2 stream: {exc}")
            ) from exc
        except ContainerFormatError as exc:
            raise self._named(exc) from exc
        header = self._layout.header
        try:
            self.atoms = int(header["atoms"])
            self.axes = int(header["axes"])
            self.buffer_size = int(header["buffer_size"])
            self.error_bounds = tuple(
                float(b) for b in header["error_bounds"]
            )
            self.method = str(header["method"])
            self.sequence = str(header["sequence"])
        except (KeyError, TypeError, ValueError) as exc:
            raise self._named(
                ContainerFormatError(
                    f"stream header is missing required fields: {exc}"
                )
            ) from exc
        try:
            check_counts(
                header,
                (c.axis for c in self._layout.chunks)
                if self._layout.complete
                else (),
            )
        except ContainerFormatError as exc:
            raise self._named(exc) from exc
        self._chunk_map: dict[tuple[int, int], fmt.ChunkEntry] = {}
        for entry in self._layout.chunks:
            self._chunk_map[(entry.buffer_index, entry.axis)] = entry
        self._n_complete = self._count_complete_buffers()

    def _named(self, exc: ContainerFormatError) -> ContainerFormatError:
        """Prefix a format error with the source path, when one exists."""
        if self._path is None:
            return exc
        return ContainerFormatError(f"{self._path}: {exc}")

    # -- structure ------------------------------------------------------

    @property
    def recovered(self) -> bool:
        """True when the index was rebuilt by the recovery scan."""
        return not self._layout.complete

    @property
    def chunks(self) -> list[fmt.ChunkEntry]:
        """Index entries of every readable chunk, in file order."""
        return list(self._layout.chunks)

    @property
    def n_buffers(self) -> int:
        """Number of *complete* buffers (every axis chunk present)."""
        return self._n_complete

    @property
    def snapshots(self) -> int:
        """Snapshots covered by the complete buffers."""
        return sum(
            self._chunk_map[(b, 0)].rows for b in range(self._n_complete)
        )

    def _count_complete_buffers(self) -> int:
        count = 0
        while all(
            (count, a) in self._chunk_map for a in range(self.axes)
        ):
            count += 1
        return count

    # -- decoding -------------------------------------------------------

    def _payload(self, buffer_index: int, axis: int) -> bytes:
        entry = self._chunk_map.get((buffer_index, axis))
        if entry is None:
            raise ContainerFormatError(
                f"chunk (buffer {buffer_index}, axis {axis}) is missing "
                "from the stream"
            )
        return fmt.chunk_payload(self._blob, entry)

    def _chunks(self, buffer_index: int) -> list[bytes]:
        return [self._payload(buffer_index, a) for a in range(self.axes)]

    def _empty(self, buffer_index: int) -> np.ndarray:
        rows = self._chunk_map[(buffer_index, 0)].rows
        return np.empty((rows, self.atoms, self.axes), dtype=np.float64)

    def read_buffer(self, buffer_index: int) -> np.ndarray:
        """Decode one complete buffer to a ``(rows, atoms, axes)`` array.

        The target decodes alone when its sessions support random
        access; otherwise buffer 0 joins the target's group to restore
        the reference.  Raises :class:`ContainerFormatError` when
        ``buffer_index`` is outside the stream's complete-buffer prefix.
        """
        if not 0 <= buffer_index < self._n_complete:
            raise ContainerFormatError(
                f"buffer {buffer_index} out of range (stream has "
                f"{self._n_complete} complete buffers)"
            )
        sessions = decode_sessions(self._layout.header)
        group = []
        if buffer_index > 0 and not sessions[0].supports_random_access:
            group.append((self._empty(0), self._chunks(0)))
        group.append((self._empty(buffer_index), self._chunks(buffer_index)))
        *_, out = decode_group(sessions, group)
        return out

    def iter_buffers(self) -> Iterator[np.ndarray]:
        """Yield every complete buffer in order, with persistent sessions."""
        sessions = decode_sessions(self._layout.header)
        yield from decode_buffers(
            sessions,
            (
                (self._empty(b), self._chunks(b))
                for b in range(self._n_complete)
            ),
        )

    def read_all(self) -> np.ndarray:
        """Decode every readable buffer into one ``(T, N, axes)`` array.

        In normal/recover mode this is the complete-buffer prefix, decoded
        straight into one preallocated array.  In salvage mode every
        *decodable* buffer is included — also ones after a damaged
        region — so the result's time axis may skip lost snapshots;
        :meth:`salvage_report` maps rows back to global snapshot indices.
        """
        if self._salvage:
            parts = [array for _, _, array in self.iter_salvaged()]
            if not parts:
                return np.empty((0, self.atoms, self.axes), dtype=np.float64)
            return np.concatenate(parts, axis=0)
        sessions = decode_sessions(self._layout.header)
        out = np.empty((self.snapshots, self.atoms, self.axes), dtype=np.float64)

        def buffers():
            start = 0
            for b in range(self._n_complete):
                rows = self._chunk_map[(b, 0)].rows
                yield out[start:start + rows], self._chunks(b)
                start += rows

        for _ in decode_buffers(sessions, buffers()):
            pass
        return out

    # -- salvage --------------------------------------------------------

    def _buffer_statuses(self) -> list[BufferStatus]:
        """Per-buffer presence/decodability over every *known* buffer.

        A buffer is known when any chunk or quarantined frame names its
        index; buffers in between with nothing surviving are included
        with ``rows_assumed=True`` (the header's ``buffer_size``).  A
        complete buffer is decodable when it is buffer 0, when buffer 0
        is complete, or when the decode sessions support random access.
        """
        known_rows: dict[int, int] = {}
        present: dict[int, set[int]] = {}
        for entry in self._layout.chunks:
            known_rows.setdefault(entry.buffer_index, entry.rows)
            present.setdefault(entry.buffer_index, set()).add(entry.axis)
        for q in self._layout.quarantined:
            if q.buffer_index is not None and q.rows is not None:
                known_rows.setdefault(q.buffer_index, q.rows)
        n_known = max(known_rows, default=-1) + 1
        later_decodable = (
            len(present.get(0, ())) == self.axes
            or decode_sessions(self._layout.header)[0].supports_random_access
        )
        statuses: list[BufferStatus] = []
        start = 0
        for b in range(n_known):
            rows = known_rows.get(b)
            assumed = rows is None
            if assumed:
                rows = self.buffer_size
            axes_present = tuple(sorted(present.get(b, ())))
            complete = len(axes_present) == self.axes
            decodable = complete and (b == 0 or later_decodable)
            statuses.append(
                BufferStatus(
                    index=b,
                    rows=rows,
                    rows_assumed=assumed,
                    present_axes=axes_present,
                    decodable=decodable,
                    snapshot_range=(start, start + rows),
                )
            )
            start += rows
        return statuses

    def salvage_report(self) -> SalvageReport:
        """Account for every snapshot: readable, lost, or unaccounted tail.

        Available in any mode (on an intact stream it reports zero
        losses); meaningful primarily with ``salvage=True``, where
        quarantined chunks make buffers undecodable.  See
        :class:`SalvageReport` for the exact guarantees.
        """
        statuses = self._buffer_statuses()
        lost: list[int] = []
        readable = 0
        for status in statuses:
            if status.decodable:
                readable += status.rows
            else:
                lost.extend(range(*status.snapshot_range))
        known = statuses[-1].snapshot_range[1] if statuses else 0
        expected = (
            self._layout.snapshots if self._layout.complete else None
        )
        if expected is not None and expected > known:
            # Footer claims snapshots no surviving or quarantined frame
            # covers (should not happen — the footer indexes everything —
            # but account rather than under-report).
            lost.extend(range(known, expected))
        return SalvageReport(
            path=self._path,
            footer_intact=self._layout.complete,
            expected_snapshots=expected,
            readable_snapshots=readable,
            lost_snapshots=lost,
            buffers=statuses,
            quarantined=list(self._layout.quarantined),
            truncated_tail=not self._layout.complete,
        )

    def iter_salvaged(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(buffer_index, first_snapshot, array)`` per decodable buffer.

        Decodes every buffer the salvage scan left intact — including
        buffers *after* a damaged region — in order, through the grouped
        loop with one set of sessions, as :meth:`read_all` does.  A gap
        does no harm: the reference comes only from buffer 0, which
        decodes first whenever a later buffer needs it.
        ``first_snapshot`` is the buffer's global snapshot offset from
        :meth:`salvage_report`.
        """
        statuses = [s for s in self._buffer_statuses() if s.decodable]
        arrays = decode_buffers(
            decode_sessions(self._layout.header),
            (
                (self._empty(status.index), self._chunks(status.index))
                for status in statuses
            ),
        )
        for status, array in zip(statuses, arrays):
            yield status.index, status.snapshot_range[0], array

    # -- inspection -----------------------------------------------------

    def container_info(self) -> ContainerInfo:
        """Header fields plus the method tag of every indexed chunk
        (only each payload's tag is read, nothing is decoded).  A forged
        tag raises :class:`DecompressionError`, as a full read would."""
        methods: list[dict[str, int]] = [dict() for _ in range(self.axes)]
        payload_bytes = 0
        for entry in self._layout.chunks:
            piece = fmt.chunk_payload(self._blob, entry)
            payload_bytes += len(piece)
            with forged_fields():
                tag = int(BlobReader(lossless_decompress(piece)).read_json()["m"])
            name = METHOD_NAMES.get(tag, f"?{tag}")
            methods[entry.axis][name] = methods[entry.axis].get(name, 0) + 1
        header = self._layout.header
        return ContainerInfo(
            snapshots=self.snapshots,
            atoms=self.atoms,
            axes=self.axes,
            buffer_size=self.buffer_size,
            error_bounds=self.error_bounds,
            method=self.method,
            sequence=self.sequence,
            n_buffers=self._n_complete,
            payload_bytes=payload_bytes,
            methods_per_axis=tuple(methods),
            members=(
                tuple(str(m) for m in header["members"])
                if "members" in header
                else None
            ),
        )
