"""Shared machinery for MDZ's prediction methods (the ADP members).

Each method (VQ, VQT, MT, interp, bitadaptive) is a stateless strategy
object operating on a :class:`MethodState` that carries the per-session
artifacts: the quantizer, the cached level model, the sequence layout,
and — for MT — the reconstruction of the session's first snapshot (the
paper's "snapshot 0").  The members and their wire ids are the rows of
:data:`repro.core.registry.MEMBERS`.

``encode`` returns both the serialized payload *and* the full batch
reconstruction; the session uses the reconstruction to maintain the MT
reference (and callers get error verification for free).  Decoding
mirrors the encoding exactly, so an encoder and a decoder fed the same blob
sequence stay in lock step.  It runs in two steps, so a reader can
decode the Huffman blobs of many payloads in one pass
(:class:`~repro.sz.huffman.HuffmanBatch`): ``parse`` reads a payload's
framing, registers its Huffman sub-blobs with the batch and returns the
reconstruct step, which runs once the batch is decoded.  ``decode`` is
the two as a batch of one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..sz.huffman import HuffmanBatch, decode_single
from ..sz.quantizer import LinearQuantizer
from .levels import SessionLevelModel

@dataclass
class MethodState:
    """Mutable per-session state shared by the methods.

    Attributes
    ----------
    quantizer:
        The session's linear-scale quantizer (absolute bound + scale).
    layout:
        ``"F"`` for Seq-2 (default), ``"C"`` for Seq-1.
    levels:
        Lazily-fitted level model (used by VQ and VQT).
    reference:
        Reconstruction of the session's first snapshot; ``None`` until the
        first batch has been coded.  MT predicts every buffer's first
        snapshot from it.
    lossless_backend:
        Name of the trailing dictionary coder.
    entropy_streams:
        Huffman sub-stream fan-out handed to the entropy stage
        (``None`` = auto-scale with array size).
    """

    quantizer: LinearQuantizer
    layout: str = "F"
    levels: SessionLevelModel = field(default_factory=SessionLevelModel)
    reference: np.ndarray | None = None
    lossless_backend: str = "zlib"
    entropy_streams: int | None = None

    def clone_for_trial(self) -> "MethodState":
        """A shallow trial copy: shares the level model (it is immutable
        once fitted) but isolates the reference so ADP trials cannot
        corrupt the session."""
        return MethodState(
            quantizer=self.quantizer,
            layout=self.layout,
            levels=self.levels,
            reference=None if self.reference is None else self.reference.copy(),
            lossless_backend=self.lossless_backend,
            entropy_streams=self.entropy_streams,
        )


class MDZMethod(ABC):
    """One of MDZ's prediction strategies (VQ / VQT / MT / ...).

    The encode side is split into two stages so an ADP trial can rank
    every member by its payload and keep the winner's reconstruction:

    * :meth:`prepare` — the fused quantize/predict/residual kernels.
      Returns a method-specific prepared object carrying every
      intermediate (including the batch reconstruction).
    * :meth:`serialize` — turns a prepared object into the wire payload.

    :meth:`encode` composes the two stages and is what non-trial callers
    use.  A member holds its stages directly (module functions or a
    backend object such as :data:`repro.sz.stages.HUFFMAN_INT_STREAM`).
    Its wire id lives in its row of :data:`repro.core.registry.MEMBERS`.

    The decode side is :meth:`parse` plus the reconstruct step it
    returns; :meth:`decode` runs them as a batch of one.
    """

    #: Short name ("vq", "vqt", "mt", ...).
    name: str = "abstract"

    @abstractmethod
    def prepare(self, batch: np.ndarray, state: MethodState):
        """Run the fused encode kernels; returns the prepared intermediates."""

    @abstractmethod
    def serialize(self, prepared, state: MethodState) -> bytes:
        """Serialize a :meth:`prepare` result into the wire payload."""

    @abstractmethod
    def reconstruction(self, prepared) -> np.ndarray:
        """The batch reconstruction carried by a :meth:`prepare` result."""

    def encode(
        self, batch: np.ndarray, state: MethodState
    ) -> tuple[bytes, np.ndarray]:
        """Encode a (T, N) batch; returns (payload, reconstruction)."""
        prepared = self.prepare(batch, state)
        return self.serialize(prepared, state), self.reconstruction(prepared)

    @abstractmethod
    def parse(
        self, blob: bytes, state: MethodState, batch: HuffmanBatch
    ) -> Callable[[], np.ndarray]:
        """Read a payload's framing and register its Huffman sub-blobs
        with ``batch``; returns the step that rebuilds the (T, N) batch
        once ``batch`` is decoded.  Reading ``state.reference`` belongs
        in that step: an earlier payload of the same batch sets it."""

    def decode(self, blob: bytes, state: MethodState) -> np.ndarray:
        """Decode a payload produced by :meth:`encode` under equal state."""
        return decode_single(self.parse, blob, state)
