"""Bitadaptive: per-region bit-depth member (wire id 5).

It *is* :class:`~repro.core.mt.MTMethod` — same reference-head +
time-wise-tail prediction — with the entropy backend swapped from the
global Huffman codebook to the per-region bit-adaptive packer
(:mod:`repro.sz.bitpack`, following the particle-compression approach
of arXiv 2404.02826).  One attribute override (``encoder = BITPACK``);
prediction, state handling, ADP trials, and streaming dispatch are all
inherited.

Where it wins: mixtures of regimes.  A single Huffman codebook over a
buffer whose regions have different residual spreads pays ~1 bit per
symbol just to say which regime a symbol came from; the per-region
``(offset, width)`` table amortizes that over 4096 values, and a quiet
region of constant codes costs zero payload bits.
"""

from __future__ import annotations

from ..sz.stages import BITPACK
from .mt import MTMethod


class BitAdaptiveMethod(MTMethod):
    """MT prediction with per-region bit-adaptive serialization."""

    name = "bitadaptive"
    encoder = BITPACK
