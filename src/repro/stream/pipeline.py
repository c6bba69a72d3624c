"""High-level entry points for the streaming pipeline.

These glue the writer/reader pair to the package's data sources: in-memory
arrays, arbitrary snapshot iterators (the in-situ case), and LAMMPS-style
text dumps — the latter streamed frame by frame, so a multi-gigabyte dump
is compressed in bounded memory.
"""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO, Iterable

import numpy as np

from ..core.config import MDZConfig
from .reader import StreamingReader
from .writer import StreamingWriter, StreamStats


def stream_compress(
    snapshots: Iterable[np.ndarray] | np.ndarray,
    target: str | Path | BinaryIO,
    config: MDZConfig | None = None,
    workers: int = 0,
) -> StreamStats:
    """Compress an iterable of ``(atoms, axes)`` snapshots to ``target``.

    ``snapshots`` may also be a ``(T, N, axes)`` array, which is iterated
    along its first dimension.
    """
    with StreamingWriter(target, config=config, workers=workers) as writer:
        writer.feed_many(snapshots)
        return writer.close()


def stream_decompress(
    source: bytes | str | Path, recover: bool = False
) -> np.ndarray:
    """Decode a container to a ``(T, N, axes)`` float64 array.

    Legacy ``MDZ1`` archives read too, strictly whatever ``recover`` says.
    """
    return StreamingReader(source, recover=recover).read_all()


def stream_compress_dump(
    dump_path: str | Path,
    target: str | Path | BinaryIO,
    config: MDZConfig | None = None,
    workers: int = 0,
) -> StreamStats:
    """Compress a LAMMPS-style text dump file, one frame at a time."""
    from ..io.dump import read_dump

    frames = (frame.positions for frame in read_dump(dump_path))
    return stream_compress(frames, target, config=config, workers=workers)
