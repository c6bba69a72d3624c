"""Interp: SZ3-style spline-interpolation member (wire id 4).

A temporal binary interpolation cascade, the same design SZ3 (arXiv
2111.02925) uses along mesh dimensions, applied along each buffer's time
axis.  The buffer root is coded with 1-D Lorenzo prediction; every
other snapshot is a cascade midpoint predicted from *reconstructed*
neighbours with either linear or cubic (4-point Catmull-Rom-like)
interpolation — the better order is chosen per buffer from the Huffman
size estimate of each order's level blocks, which is the "dynamic" part
of SZ-Interp.

Where it wins: smoothly curving trajectories (oscillation, inertial
drift).  Time-wise chain prediction (VQT/MT tails) pays for the full
first difference of every snapshot; a midpoint interpolation cancels the
linear component, leaving residuals proportional to the *second*
difference.  The ADP selector picks this member per buffer whenever that
trade is favourable (``--method adp --methods vq,vqt,mt,interp``).

Buffers are self-contained (no session reference, like VQ), so interp
buffers decode in isolation and mix freely with any other member under
ADP.  All cascade kernels are shared with the SZ-Interp baseline
(:mod:`repro.sz.interp`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DecompressionError
from ..serde import BlobReader, BlobWriter
from ..sz.interp import interpolate, level_plan, reconstruct_level
from ..sz.pipeline import (
    encode_int_stream,
    estimate_int_stream_bytes,
    parse_int_stream,
)
from ..sz.predictors import lorenzo_1d_encode, lorenzo_1d_reconstruct
from ..sz.quantizer import QuantizedBlock
from .methods import MDZMethod, MethodState

#: Interpolation orders, in trial order (ties go to the earlier entry).
ORDERS = ("linear", "cubic")


@dataclass
class InterpPrepared:
    """Intermediates of one interp pass: root + per-level blocks."""

    shape: tuple[int, ...]
    anchor: float
    order: str
    root: QuantizedBlock
    blocks: tuple[QuantizedBlock, ...]
    recon: np.ndarray


class InterpMethod(MDZMethod):
    """Temporal interpolation cascade with per-buffer order selection."""

    name = "interp"

    def _cascade(self, batch, state: MethodState, order: str):
        """Encode one buffer at the given order; returns an
        :class:`InterpPrepared` (prediction always reads the running
        reconstruction, so the result is exactly error-bounded)."""
        quantizer = state.quantizer
        anchor = float(batch[0, 0])
        root, root_recon = lorenzo_1d_encode(batch[0], quantizer, anchor)
        recon = np.empty_like(batch, dtype=np.float64)
        recon[0] = root_recon
        blocks: list[QuantizedBlock] = []
        for stride, idx, is_anchor in level_plan(batch.shape[0]):
            pred = interpolate(recon, idx, stride, order, is_anchor)
            codes = np.rint(
                (batch[idx] - pred) / quantizer.bin_width
            ).astype(np.int64)
            absolute = quantizer.grid_levels(batch[idx], 0.0)
            block = quantizer.split(codes, absolute, order="F")
            blocks.append(block)
            recon[idx] = reconstruct_level(block, pred, quantizer)
        return InterpPrepared(
            shape=tuple(batch.shape),
            anchor=anchor,
            order=order,
            root=root,
            blocks=tuple(blocks),
            recon=recon,
        )

    def prepare(self, batch, state: MethodState):
        best = None
        best_cost = None
        for order in ORDERS:
            candidate = self._cascade(batch, state, order)
            # The root is order-independent; compare level payloads only.
            cost = sum(
                estimate_int_stream_bytes(
                    block,
                    state.layout,
                    alphabet_hint=state.quantizer.scale + 1,
                    streams=state.entropy_streams,
                )
                for block in candidate.blocks
            )
            if best_cost is None or cost < best_cost:
                best, best_cost = candidate, cost
        return best

    def serialize(self, prepared: InterpPrepared, state: MethodState):
        writer = BlobWriter()
        writer.write_json(
            {
                "shape": list(prepared.shape),
                "order": prepared.order,
                "anchor": prepared.anchor,
            }
        )
        writer.write_bytes(
            encode_int_stream(
                prepared.root,
                "C",
                alphabet_hint=state.quantizer.scale + 1,
                streams=state.entropy_streams,
            )
        )
        for block in prepared.blocks:
            writer.write_bytes(
                encode_int_stream(
                    block,
                    state.layout,
                    alphabet_hint=state.quantizer.scale + 1,
                    streams=state.entropy_streams,
                )
            )
        return writer.getvalue()

    # Unused by ADP; kept because mdzbench/layertrace.py wraps it by name.
    def estimate(self, prepared: InterpPrepared, state: MethodState):
        total = 64 + estimate_int_stream_bytes(
            prepared.root,
            "C",
            alphabet_hint=state.quantizer.scale + 1,
            streams=state.entropy_streams,
        )
        for block in prepared.blocks:
            total += estimate_int_stream_bytes(
                block,
                state.layout,
                alphabet_hint=state.quantizer.scale + 1,
                streams=state.entropy_streams,
            )
        return total

    def reconstruction(self, prepared: InterpPrepared):
        return prepared.recon

    def parse(self, blob, state: MethodState, batch):
        reader = BlobReader(blob)
        meta = reader.read_json()
        shape = tuple(int(x) for x in meta["shape"])
        order = str(meta["order"])
        if order not in ORDERS:
            raise DecompressionError(f"unknown interp order {order!r}")
        anchor = float(meta["anchor"])
        root = parse_int_stream(reader.read_bytes(), batch)
        plan = level_plan(shape[0])
        blocks = [parse_int_stream(reader.read_bytes(), batch) for _ in plan]

        def reconstruct() -> np.ndarray:
            quantizer = state.quantizer
            out = np.empty(shape, dtype=np.float64)
            out[0] = lorenzo_1d_reconstruct(root(), quantizer, anchor)
            for (stride, idx, is_anchor), block in zip(plan, blocks):
                pred = interpolate(out, idx, stride, order, is_anchor)
                out[idx] = reconstruct_level(block(), pred, quantizer)
            return out

        return reconstruct

    # Readers call parse; decode stays in the class's own namespace
    # because mdzbench/layertrace.py wraps it by name.
    decode = MDZMethod.decode
