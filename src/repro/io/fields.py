"""Multi-field trajectory compression (positions, velocities, forces...).

MD outputs often carry more per-atom fields than positions.  The paper's
compressor targets positions (Section III-A), but the same machinery
applies to any per-atom float field; this module packs several fields —
each compressed as its own ``.mdz`` container with its own error bound —
into one archive.

Example
-------
>>> from repro.io.fields import compress_fields, decompress_fields
>>> archive = compress_fields(
...     {"positions": pos, "velocities": vel},
...     bounds={"positions": 1e-3, "velocities": 1e-2},
... )
>>> fields = decompress_fields(archive)
>>> fields["velocities"].shape == vel.shape
True
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.config import MDZConfig
from ..exceptions import CompressionError, ContainerFormatError
from ..serde import BlobReader, BlobWriter
from .container import read_container, write_container

_MAGIC = b"MDZF"


def compress_fields(
    fields: dict[str, np.ndarray],
    bounds: dict[str, float] | float = 1e-3,
    config: MDZConfig | None = None,
) -> bytes:
    """Compress several per-atom fields into one archive.

    Parameters
    ----------
    fields:
        Mapping of field name to a (snapshots, atoms, components) array
        (2-D arrays are treated as single-component).  All fields must
        share the snapshot and atom counts.
    bounds:
        Value-range-relative error bound per field, or one bound for all.
    config:
        Base MDZ configuration (its ``error_bound`` is overridden per
        field).
    """
    if not fields:
        raise CompressionError("no fields to compress")
    base = config if config is not None else MDZConfig()
    shapes = set()
    writer = BlobWriter()
    writer.write_bytes(_MAGIC)
    writer.write_json(sorted(fields))
    for name in sorted(fields):
        data = np.asarray(fields[name])
        if data.ndim == 2:
            data = data[:, :, None]
        if data.ndim != 3:
            raise CompressionError(
                f"field {name!r} must be (snapshots, atoms[, k]), "
                f"got {np.asarray(fields[name]).shape}"
            )
        shapes.add(data.shape[:2])
        if len(shapes) > 1:
            raise CompressionError(
                f"fields disagree on (snapshots, atoms): {sorted(shapes)}"
            )
        bound = bounds[name] if isinstance(bounds, dict) else bounds
        writer.write_json({"name": name})
        writer.write_bytes(
            write_container(data, replace(base, error_bound=bound))
        )
    return writer.getvalue()


def decompress_fields(archive: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`compress_fields`.

    Single-component fields come back as (snapshots, atoms) arrays.
    """
    reader = BlobReader(archive)
    magic = reader.read_bytes()
    if magic != _MAGIC:
        raise ContainerFormatError(
            f"bad field-archive magic {magic!r}; expected {_MAGIC!r}"
        )
    names = [str(n) for n in reader.read_json()]
    out: dict[str, np.ndarray] = {}
    for expected in names:
        head = reader.read_json()
        if str(head["name"]) != expected:
            raise ContainerFormatError(
                f"field order corrupted: expected {expected!r}, "
                f"found {head['name']!r}"
            )
        data = read_container(reader.read_bytes())
        if data.shape[2] == 1:
            data = data[:, :, 0]
        out[expected] = data
    return out
