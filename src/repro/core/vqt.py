"""VQT: vector-quantization-time-based compression (Section VI-A).

The first snapshot of each buffer is coded with the VQ predictor; every
remaining snapshot is predicted point-wise from the reconstruction of its
predecessor (classic time-based prediction).  This wins on datasets that
combine a strong multi-peak spatial distribution with a smooth time
dimension (Figure 5 (c)(d)) — the spatial structure pays for the buffer
head, the temporal smoothness for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..serde import BlobReader, BlobWriter
from ..sz.pipeline import (
    encode_int_stream,
    estimate_int_stream_bytes,
    parse_int_stream,
)
from ..sz.predictors import timewise_encode, timewise_reconstruct
from ..sz.quantizer import QuantizedBlock
from .methods import MDZMethod, MethodState
from .vq import (
    VQPrepared,
    vq_estimate_bytes,
    vq_parse_array,
    vq_prepare,
    vq_serialize,
)


@dataclass
class VQTPrepared:
    """Intermediates of one VQT pass: VQ head + time-wise tail."""

    shape: tuple[int, ...]
    head: VQPrepared
    tail: QuantizedBlock | None
    recon: np.ndarray


class VQTMethod(MDZMethod):
    """VQ head + time-based tail within each buffer."""

    name = "vqt"

    def prepare(self, batch, state: MethodState):
        head = vq_prepare(batch[:1], state.levels.fit_for(batch[0]), state)
        recon = np.empty_like(batch, dtype=np.float64)
        recon[0] = head.recon[0]
        tail = None
        if batch.shape[0] > 1:
            tail, tail_recon = timewise_encode(
                batch[1:], state.quantizer, recon[0]
            )
            recon[1:] = tail_recon
        return VQTPrepared(
            shape=tuple(batch.shape), head=head, tail=tail, recon=recon
        )

    def serialize(self, prepared: VQTPrepared, state: MethodState):
        writer = BlobWriter()
        writer.write_json({"shape": list(prepared.shape)})
        writer.write_bytes(vq_serialize(prepared.head, state))
        if prepared.tail is not None:
            writer.write_bytes(
                encode_int_stream(
                    prepared.tail,
                    state.layout,
                    alphabet_hint=state.quantizer.scale + 1,
                    streams=state.entropy_streams,
                )
            )
        return writer.getvalue()

    # Unused by ADP; kept because mdzbench/layertrace.py wraps it by name.
    def estimate(self, prepared: VQTPrepared, state: MethodState):
        total = 32 + vq_estimate_bytes(prepared.head, state)
        if prepared.tail is not None:
            total += estimate_int_stream_bytes(
                prepared.tail,
                state.layout,
                alphabet_hint=state.quantizer.scale + 1,
                streams=state.entropy_streams,
            )
        return total

    def reconstruction(self, prepared: VQTPrepared):
        return prepared.recon

    def parse(self, blob, state: MethodState, batch):
        reader = BlobReader(blob)
        shape = tuple(int(x) for x in reader.read_json()["shape"])
        head = vq_parse_array(reader.read_bytes(), state, batch)
        tail = (
            parse_int_stream(reader.read_bytes(), batch)
            if shape[0] > 1
            else None
        )

        def reconstruct() -> np.ndarray:
            out = np.empty(shape, dtype=np.float64)
            out[0] = head()[0]
            if tail is not None:
                out[1:] = timewise_reconstruct(tail(), state.quantizer, out[0])
            return out

        return reconstruct

    # Readers call parse; decode stays in the class's own namespace
    # because mdzbench/layertrace.py wraps it by name.
    decode = MDZMethod.decode
