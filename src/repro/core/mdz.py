"""MDZ compressor front ends.

Two entry points:

* :class:`MDZAxisCompressor` — the per-axis session implementing the
  :class:`~repro.baselines.api.Compressor` interface (what the benchmark
  harness drives, one session per coordinate axis);
* :class:`MDZ` — the user-facing whole-trajectory compressor: takes a
  ``(snapshots, atoms, 3)`` array and writes it, one axis session per
  coordinate, into a self-describing ``MDZ2`` container through the
  streaming writer (:mod:`repro.io.container`).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import replace
from typing import Iterable, Iterator

import numpy as np

from ..baselines.api import Compressor, SessionMeta, register_compressor
from ..exceptions import CompressionError, DecompressionError
from ..serde import BlobReader, BlobWriter
from ..sz.huffman import HuffmanBatch
from ..sz.lossless import lossless_compress, lossless_decompress
from ..sz.quantizer import LinearQuantizer
from ..telemetry import get_recorder
from .adaptive import ADPSelector
from .config import MDZConfig
from .levels import SessionLevelModel
from .methods import MethodState
from .registry import (
    MEMBERS,
    METHOD_IDS,
    METHOD_NAMES,
    get_method,
    method_entry,
)


class MDZAxisCompressor(Compressor):
    """MDZ session over one coordinate-axis stream of (B, N) buffers.

    Parameters
    ----------
    config:
        Full MDZ configuration; ``config.method`` picks ADP (default) or a
        fixed method.  The harness supplies the *absolute* error bound via
        :meth:`begin`, so ``config.error_bound`` is ignored here.
    """

    is_lossless = False

    def __init__(self, config: MDZConfig | None = None) -> None:
        self.config = config if config is not None else MDZConfig()
        self.name = (
            "mdz" if self.config.method == "adp" else f"mdz-{self.config.method}"
        )
        # A buffer decodes without buffer 0 when no member that can code
        # it reads the session reference (``needs_reference``).
        members = (
            self.config.adp_members
            if self.config.method == "adp"
            else (self.config.method,)
        )
        self.supports_random_access = not any(
            method_entry(name).needs_reference for name in members
        )
        self._state: MethodState | None = None
        self._selector: ADPSelector | None = None

    def begin(self, error_bound: float | None, meta: SessionMeta) -> None:
        super().begin(error_bound, meta)
        if error_bound is not None and not np.isfinite(error_bound):
            # A NaN/Inf bound almost always means the value range it was
            # resolved from came from non-finite input data; say so instead
            # of letting the quantizer complain about its configuration.
            raise CompressionError(
                f"{self.name}: error bound is not finite ({error_bound}); "
                "this usually means the input contains non-finite values"
            )
        self._state = MethodState(
            quantizer=LinearQuantizer(
                error_bound, self.config.quantization_scale
            ),
            layout=self.config.layout,
            levels=SessionLevelModel(seed=self.config.level_seed),
            reference=None,
            lossless_backend=self.config.lossless_backend,
            entropy_streams=self.config.entropy_streams,
        )
        self._selector = ADPSelector(
            interval=self.config.adaptation_interval,
            members=self.config.adp_members,
        )

    @property
    def selection_history(self):
        """ADP selection records (empty for fixed-method sessions)."""
        return [] if self._selector is None else self._selector.history

    def compress_batch(self, batch: np.ndarray) -> bytes:
        batch = self.as_batch(batch)
        if not np.isfinite(batch).all():
            raise CompressionError("input contains non-finite values")
        state = self._require_state()
        recorder = get_recorder()
        # The provenance span: every annotation made below it — by ADP,
        # the quantizer serializer, the Huffman stage, the dictionary
        # coder — lands in this buffer's provenance record.
        with recorder.span("mdz.compress.buffer", provenance=True), \
                recorder.timer("mdz.compress_batch"):
            if self.config.method == "adp":
                name, payload, recon = self._selector.encode(batch, state)
            else:
                name = self.config.method
                payload, recon = get_method(name).encode(batch, state)
            if state.reference is None:
                state.reference = recon[0].copy()
            writer = BlobWriter()
            writer.write_json({"m": METHOD_IDS[name]})
            writer.write_bytes(payload)
            blob = lossless_compress(writer.getvalue(), state.lossless_backend)
            recorder.annotate(
                method=name,
                rows=int(batch.shape[0]),
                raw_values=int(batch.size),
                compressed_bytes=len(blob),
                error_bound=self.error_bound,
            )
        if recorder.enabled:
            recorder.count("mdz.buffers")
            recorder.count(f"mdz.method.{name}")
            recorder.count("mdz.compressed_bytes", len(blob))
            recorder.count("mdz.raw_values", batch.size)
        return blob

    def decompress_batch(self, blob: bytes) -> np.ndarray:
        """Decode one buffer: :func:`decompress_chunks` with a list of one."""
        (out,) = decompress_chunks([(self, blob)])
        return out

    def _require_state(self) -> MethodState:
        if self._state is None:
            raise CompressionError(
                "session not started: call begin(error_bound, meta) first"
            )
        return self._state

    # -- streaming/parallel support -------------------------------------
    #
    # After the first buffer an MDZ session is effectively frozen: the
    # reference snapshot and the level model are fitted once and never
    # change, and only ADP's buffer counter advances.  A clone of the
    # session therefore codes every later buffer exactly as the session
    # would: the streaming writer pickles one to its worker pool, and the
    # quality auditor decodes sampled chunks with one.

    def pending_method(self) -> str | None:
        """The method the next buffer will be coded with, if it can be
        encoded out-of-session; ``None`` when the buffer must run here
        (first buffer of the session, or an ADP trial buffer)."""
        state = self._require_state()
        if state.reference is None:
            return None
        if self.config.method != "adp":
            return self.config.method
        if self._selector.trial_due():
            return None
        return self._selector.current

    def clone(self, method: str | None = None) -> "MDZAxisCompressor":
        """A fresh session with this one's config, bound and meta, and
        its state as :meth:`MethodState.clone_for_trial
        <repro.core.methods.MethodState.clone_for_trial>` copies it: the
        reference is copied, the level model shared.  ``method``, when
        given, fixes the clone's method.

        This is the only way a session leaves its owner: the streaming
        writer pickles ``clone(method)`` for its worker pool, and the
        quality auditor decodes with ``clone()``.
        """
        state = self._require_state()
        config = self.config
        if method is not None:
            config = replace(config, method=method)
        twin = MDZAxisCompressor(config)
        twin.begin(self.error_bound, self.meta)
        twin._state = state.clone_for_trial()
        return twin

    def note_external_buffer(self) -> None:
        """Account for one buffer encoded out-of-session (keeps the ADP
        trial schedule aligned with the true buffer count)."""
        self._require_state()
        if self.config.method == "adp":
            self._selector.note_external()


@contextlib.contextmanager
def forged_fields():
    """Raise :class:`DecompressionError` for the builtin error a forged
    payload field trips: a missing key, a mistyped or negative count, a
    short array."""
    try:
        yield
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DecompressionError(
            f"corrupt chunk payload: {type(exc).__name__}: {exc}"
        ) from exc


def decompress_chunks(
    items: Iterable[tuple[MDZAxisCompressor, bytes]],
) -> Iterator[np.ndarray]:
    """Decode ``(session, chunk)`` pairs with one entropy pass.

    Every chunk is parsed first (dictionary decoder, method tag, member
    framing), registering its Huffman sub-blobs with one
    :class:`~repro.sz.huffman.HuffmanBatch`; the batch is decoded once;
    then the chunks are reconstructed and yielded in list order.  The
    order matters: a session's first buffer sets its MT reference, which
    its later buffers read when they are reconstructed.
    ``mdz.decompress_batch`` is observed once per chunk and times that
    chunk's parse and reconstruct; the batch has ``sz.huffman.decode``.
    Chunks are untrusted input: a field the parse or reconstruct step
    cannot use raises :class:`DecompressionError`.
    """
    recorder = get_recorder()
    batch = HuffmanBatch()
    steps = []
    for session, blob in items:
        start = time.perf_counter()
        state = session._require_state()
        with forged_fields():
            reader = BlobReader(lossless_decompress(blob))
            method_id = int(reader.read_json()["m"])
            try:
                name = METHOD_NAMES[method_id]
            except KeyError:
                raise DecompressionError(
                    f"unknown MDZ method id {method_id}"
                ) from None
            method = get_method(name)
            reconstruct = method.parse(reader.read_bytes(), state, batch)
        steps.append((state, reconstruct, time.perf_counter() - start))
    batch.decode()
    for state, reconstruct, parse_s in steps:
        start = time.perf_counter()
        with forged_fields():
            out = reconstruct()
        if state.reference is None:
            state.reference = out[0].copy()
        recorder.observe(
            "mdz.decompress_batch", parse_s + time.perf_counter() - start
        )
        yield out


class MDZ:
    """Whole-trajectory MDZ compressor producing ``.mdz`` containers.

    Example
    -------
    >>> from repro import MDZ, MDZConfig
    >>> mdz = MDZ(MDZConfig(error_bound=1e-3, buffer_size=10))
    >>> blob = mdz.compress(positions)          # (T, N, 3) array
    >>> restored = mdz.decompress(blob)         # same shape, bounded error
    """

    def __init__(self, config: MDZConfig | None = None) -> None:
        self.config = config if config is not None else MDZConfig()

    def compress(self, positions: np.ndarray) -> bytes:
        """Compress a (snapshots, atoms, 3) trajectory into a container."""
        from ..io.container import write_container

        positions = np.asarray(positions)
        if positions.ndim == 2:
            positions = positions[:, :, None]
        if positions.ndim != 3:
            raise CompressionError(
                f"expected (snapshots, atoms, axes), got shape {positions.shape}"
            )
        if not np.isfinite(positions).all():
            raise CompressionError("input contains non-finite values")
        return write_container(positions, self.config)

    def decompress(self, blob: bytes) -> np.ndarray:
        """Decompress a container back to the full trajectory."""
        from ..io.container import read_container

        return read_container(blob)

    def decompress_batch(self, blob: bytes, batch_index: int) -> np.ndarray:
        """Decode a single buffer (all axes) from a container.

        A buffer decodes alone unless a member that can code it reads the
        session reference (MT, bitadaptive); then buffer 0 is decoded
        with it to rebuild the reference.
        """
        from ..io.container import read_container_batch

        return read_container_batch(blob, batch_index)


register_compressor("mdz", lambda: MDZAxisCompressor(MDZConfig(method="adp")))
for _entry in MEMBERS:
    register_compressor(
        f"mdz-{_entry.name}",
        lambda method=_entry.name: MDZAxisCompressor(MDZConfig(method=method)),
    )
