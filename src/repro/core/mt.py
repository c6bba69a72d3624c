"""MT: multi-level time-based compression (Section VI-B).

The first snapshot of each buffer is predicted point-wise from the
reconstruction of the *initial snapshot of the whole session* ("snapshot
0") — the initial-time-based prediction marked (T) in Figure 6 — and the
remaining snapshots use ordinary time-based prediction.  Figure 8 motivates
the design: for solids like Copper-A and Pt, every snapshot stays extremely
similar to snapshot 0, so the reference prediction beats any spatial
(Lorenzo) predictor by orders of magnitude (Table II).

The very first snapshot of a session has no reference yet; it is
bootstrapped with intra-snapshot Lorenzo prediction, and its reconstruction
becomes the session reference (maintained by the session object, not here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DecompressionError
from ..serde import BlobReader, BlobWriter
from ..sz.predictors import (
    lorenzo_1d_encode,
    lorenzo_1d_reconstruct,
    reference_encode,
    reference_reconstruct,
    timewise_encode,
    timewise_reconstruct,
)
from ..sz.quantizer import QuantizedBlock
from ..sz.stages import HUFFMAN_INT_STREAM
from .methods import MDZMethod, MethodState


@dataclass
class MTPrepared:
    """Intermediates of one MT pass: head block + time-wise tail."""

    shape: tuple[int, ...]
    bootstrap: bool
    anchor: float | None
    head: QuantizedBlock
    tail: QuantizedBlock | None
    recon: np.ndarray


class MTMethod(MDZMethod):
    """Initial-snapshot head + time-based tail within each buffer.

    The entropy backend is the :attr:`encoder` attribute, so a subclass
    swaps its whole serialization by setting it (see
    :class:`repro.core.bitadaptive.BitAdaptiveMethod`).
    """

    name = "mt"
    #: Entropy backend: ``encode`` / ``estimate`` / ``parse`` / ``decode``
    #: over quantized blocks (:mod:`repro.sz.stages`).
    encoder = HUFFMAN_INT_STREAM

    def prepare(self, batch, state: MethodState):
        bootstrap = state.reference is None
        recon = np.empty_like(batch, dtype=np.float64)
        anchor = None
        if bootstrap:
            anchor = float(batch[0, 0])
            head, head_recon = lorenzo_1d_encode(
                batch[0], state.quantizer, anchor
            )
        else:
            head, head_recon = reference_encode(
                batch[0], state.quantizer, state.reference
            )
        recon[0] = head_recon
        tail = None
        if batch.shape[0] > 1:
            tail, tail_recon = timewise_encode(
                batch[1:], state.quantizer, recon[0]
            )
            recon[1:] = tail_recon
        return MTPrepared(
            shape=tuple(batch.shape),
            bootstrap=bootstrap,
            anchor=anchor,
            head=head,
            tail=tail,
            recon=recon,
        )

    def serialize(self, prepared: MTPrepared, state: MethodState):
        encoder = self.encoder
        writer = BlobWriter()
        writer.write_json(
            {"shape": list(prepared.shape), "bootstrap": prepared.bootstrap}
        )
        if prepared.bootstrap:
            writer.write_json({"anchor": prepared.anchor})
        writer.write_bytes(
            encoder.encode(
                prepared.head,
                "C",
                alphabet_hint=state.quantizer.scale + 1,
                streams=state.entropy_streams,
            )
        )
        if prepared.tail is not None:
            writer.write_bytes(
                encoder.encode(
                    prepared.tail,
                    state.layout,
                    alphabet_hint=state.quantizer.scale + 1,
                    streams=state.entropy_streams,
                )
            )
        return writer.getvalue()

    # Unused by ADP; kept because mdzbench/layertrace.py wraps it by name.
    def estimate(self, prepared: MTPrepared, state: MethodState):
        encoder = self.encoder
        total = 48 + encoder.estimate(
            prepared.head,
            "C",
            alphabet_hint=state.quantizer.scale + 1,
            streams=state.entropy_streams,
        )
        if prepared.tail is not None:
            total += encoder.estimate(
                prepared.tail,
                state.layout,
                alphabet_hint=state.quantizer.scale + 1,
                streams=state.entropy_streams,
            )
        return total

    def reconstruction(self, prepared: MTPrepared):
        return prepared.recon

    def parse(self, blob, state: MethodState, batch):
        encoder = self.encoder
        reader = BlobReader(blob)
        meta = reader.read_json()
        shape = tuple(int(x) for x in meta["shape"])
        bootstrap = bool(meta["bootstrap"])
        anchor = float(reader.read_json()["anchor"]) if bootstrap else None
        head = encoder.parse(reader.read_bytes(), batch)
        tail = None
        if shape[0] > 1:
            tail = encoder.parse(reader.read_bytes(), batch)

        def reconstruct() -> np.ndarray:
            quantizer = state.quantizer
            out = np.empty(shape, dtype=np.float64)
            if bootstrap:
                out[0] = lorenzo_1d_reconstruct(head(), quantizer, anchor)
            elif state.reference is None:
                raise DecompressionError(
                    "MT buffer requires the session reference snapshot; "
                    "decode buffers in order"
                )
            else:
                out[0] = reference_reconstruct(
                    head(), quantizer, state.reference
                )
            if tail is not None:
                out[1:] = timewise_reconstruct(tail(), quantizer, out[0])
            return out

        return reconstruct

    # Readers call parse; decode stays in the class's own namespace
    # because mdzbench/layertrace.py wraps it by name.
    decode = MDZMethod.decode
