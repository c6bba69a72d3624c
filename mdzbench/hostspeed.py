"""The host-speed factor of a benchmark run.

The benchmark was sized on a shared two-core virtual machine whose speed
drifts: the same piece of work runs up to 1.5x slower from one second
to the next, and 1.3-1.8x slower in spells of a few seconds to several
minutes.  The guest kernel reports no steal time, so process CPU time
slows as much as wall time, and a median over a run cannot remove a
spell that covers the run.

:func:`reference_kernel` imitates the program's hottest loops without
calling program code, so a change to the program does not move it: a
Python loop of NumPy operations on arrays of 64 elements (a shift, a
gather from a word array and from a lookup table, a masked add, a slice
store), as in the round-based Huffman decode and the per-buffer stages,
plus a little zlib.  Such loops are bound by interpreter and NumPy
dispatch overhead, and on the sizing host they slow down more than bulk
array work when a neighbour is busy.  A sample's time divided by
:data:`REFERENCE_S` is the host's slow-down factor at that moment.

:class:`Clock` samples the kernel at checkpoints a fraction of a second
apart and divides each piece of work by the mean factor of the
checkpoints just before and just after it, so the pieces are put on the
scale of the sizing host at full speed.
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

#: Seconds the reference kernel takes at full speed on the host the
#: benchmark was sized on (a two-vCPU Intel Xeon virtual machine).
REFERENCE_S = 0.023

_RNG = np.random.default_rng(0)
_WORDS = _RNG.integers(0, 1 << 62, 40_000, dtype=np.int64).astype(np.uint64)
_LUT = _RNG.integers(0, 255, 1 << 12).astype(np.int64)
_BASE = np.arange(64, dtype=np.int64) * 600
_TEXT = (np.cumsum(_RNG.integers(-3, 4, 20_000)) % 251).astype(np.uint8).tobytes()
ROUNDS = 2000


def reference_kernel() -> None:
    """A fixed dispatch-bound NumPy loop plus zlib (about 25 ms)."""
    cursors = np.zeros(64, dtype=np.int64)
    out = np.empty(64 * ROUNDS, dtype=np.int64)
    for r in range(ROUNDS):
        index = np.minimum(cursors >> 3, 590)
        shift = np.uint64(40) - (cursors & 7).astype(np.uint64)
        window = (_WORDS[_BASE + index] >> shift) & np.uint64(4095)
        symbols = _LUT[window.astype(np.int64)]
        out[r * 64:(r + 1) * 64] = symbols
        cursors += (symbols & 7) + 1
        cursors %= 4000
    zlib.compress(_TEXT, 6)


class HostSpeed:
    """Reference-kernel samples of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns the host's slow-down factor now."""
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1] / REFERENCE_S

    def factor(self) -> float:
        """The run's slow-down factor: the median sample's."""
        return statistics.median(self.samples) / REFERENCE_S


class Clock:
    """Pieces of timed work between host-speed checkpoints.

    :meth:`piece` records the seconds of one piece of work and returns
    its id; :meth:`checkpoint` samples the host speed.  Call
    :meth:`scaled` once the checkpoint after the piece is taken.  A piece
    recorded with ``scale=False`` is reported as timed.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.factors = [speed.sample()]
        self._pieces: list[tuple[int, float]] = []

    def checkpoint(self) -> None:
        self.factors.append(self.speed.sample())

    def piece(self, seconds: float, scale: bool = True) -> int:
        self._pieces.append((len(self.factors) - 1 if scale else None, seconds))
        return len(self._pieces) - 1

    def since(self, start: float, scale: bool = True) -> int:
        """Record the piece that began at ``perf_counter()`` ``start``."""
        return self.piece(time.perf_counter() - start, scale)

    def raw(self, piece: int) -> float:
        return self._pieces[piece][1]

    def scaled(self, piece: int) -> float:
        segment, seconds = self._pieces[piece]
        if segment is None:
            return seconds
        after = self.factors[min(segment + 1, len(self.factors) - 1)]
        return seconds / ((self.factors[segment] + after) / 2)
