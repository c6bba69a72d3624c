"""Sampled error-bound auditing of freshly encoded buffers.

MDZ's whole contract is the error bound, yet nothing in a running
pipeline ever re-checks it: the encoder trusts its own reconstruction
and the decoder is usually on another machine, weeks later.  The
:class:`QualityAuditor` closes that loop in production at a sampled
cost: for a deterministic subset of buffers it decodes every axis chunk
of the buffer in one pass (:func:`repro.core.mdz.decompress_chunks`),
each through a clone of its encode session
(:meth:`MDZAxisCompressor.clone
<repro.core.mdz.MDZAxisCompressor.clone>`), and compares the
reconstructions against the original values.

Sampling is by *global buffer index* (``buffer_index % interval == 0``,
default every 32nd buffer), never by randomness or wall clock, so a
serial run and a ``--workers N`` run audit exactly the same buffers —
the same determinism discipline as the byte-identical encode guarantee.
The audit never touches the encode path: archives are byte-identical
with auditing on, off, or at any interval.

Per audited (buffer, axis) chunk the auditor records (metric
definitions match :mod:`repro.analysis.metrics`, the paper's Section
VII-C):

* gauges ``quality.max_abs_error``, ``quality.psnr``, ``quality.ratio``,
  ``quality.bound_margin`` (max error / bound: 1.0 = at the bound);
* counters ``quality.audits`` / ``quality.audited_values``.

The timer ``quality.audit`` bounds the overhead, one observation per
audited buffer.

A reconstruction outside the bound — or a blob that fails to decode at
all, an even stronger violation of the contract — increments the hard
``quality.bound_violations`` counter, records a ``quality.bound_violation``
event, and emits a structured error log record
(:mod:`repro.telemetry.logging`), so the signal survives even when no
metrics recorder is installed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .logging import get_logger
from .recorder import get_recorder

#: Default sampling interval: audit every 32nd buffer (per axis).
DEFAULT_AUDIT_INTERVAL = 32

#: Relative tolerance when comparing the measured max error against the
#: bound: both sides of the comparison went through the same float64
#: quantizer arithmetic, so anything beyond a few ulps is a real breach.
BOUND_RTOL = 1e-9

_log = get_logger("quality")


@dataclass(frozen=True)
class QualityReport:
    """Outcome of one buffer audit (JSON-serializable via ``to_dict``)."""

    buffer_index: int
    axis: int
    rows: int
    values: int
    error_bound: float
    compressed_bytes: int
    #: Largest absolute point-wise error; +inf when decode failed.
    max_abs_error: float
    psnr: float
    ratio: float
    within_bound: bool
    decode_error: str | None = None

    def to_dict(self) -> dict:
        return {
            "buffer_index": self.buffer_index,
            "axis": self.axis,
            "rows": self.rows,
            "values": self.values,
            "error_bound": self.error_bound,
            "compressed_bytes": self.compressed_bytes,
            "max_abs_error": self.max_abs_error,
            "psnr": self.psnr,
            "ratio": self.ratio,
            "within_bound": self.within_bound,
            "decode_error": self.decode_error,
        }


def _psnr(original: np.ndarray, recon: np.ndarray) -> float:
    """PSNR in dB — same definition as :func:`repro.analysis.metrics.psnr`."""
    value_range = float(original.max() - original.min())
    mse = float(np.mean((original - recon) ** 2))
    if mse == 0.0:
        return math.inf
    if value_range == 0.0:
        return -math.inf
    return 20.0 * math.log10(value_range) - 10.0 * math.log10(mse)


def _decode(chunks) -> list[tuple[np.ndarray | None, str | None]]:
    """``(reconstruction, decode error)`` per ``(axis, session, blob,
    original)`` chunk: one grouped decode, or each chunk alone when that
    raises, so only a broken chunk carries an error."""
    # Imported here: repro.core.mdz itself imports the telemetry package.
    from ..core.mdz import decompress_chunks

    try:
        return [
            (out, None)
            for out in decompress_chunks(
                [(session.clone(), blob) for _, session, blob, _ in chunks]
            )
        ]
    except Exception as exc:  # decode failure = hard violation
        if len(chunks) == 1:
            return [(None, f"{type(exc).__name__}: {exc}")]
    return [result for chunk in chunks for result in _decode([chunk])]


class QualityAuditor:
    """Deterministically sampled round-trip auditing for one stream.

    The owner (the streaming writer) drives three steps, all keyed by
    the global buffer index so the parallel path — where encode results
    return out of order — audits the same buffers as serial:

    1. :meth:`want` — should this buffer be audited?
    2. :meth:`stash` — retain a copy of the original values at flush
       time (the only moment they are still in hand);
    3. :meth:`land` — hand over each encoded chunk; once the last
       sampled chunk of a buffer lands, :meth:`audit` round-trips the
       whole buffer and records.

    ``interval <= 0`` disables the auditor; every method is then a cheap
    no-op so call sites need no guards.
    """

    def __init__(self, interval: int = DEFAULT_AUDIT_INTERVAL) -> None:
        self.interval = int(interval)
        self.violations = 0
        #: Recently audited ``(buffer_index, axis)`` pairs (bounded so a
        #: weeks-long stream does not accumulate an unbounded trail).
        self.audited: deque[tuple[int, int]] = deque(maxlen=4096)
        self._stash: dict[tuple[int, int], np.ndarray] = {}
        #: Landed chunks of sampled buffers whose other axes are still
        #: in flight, per buffer index.
        self._landed: dict[int, list[tuple]] = {}

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    def want(self, buffer_index: int) -> bool:
        """True when ``buffer_index`` is in the audit sample."""
        return self.interval > 0 and buffer_index % self.interval == 0

    def stash(self, buffer_index: int, axis: int, original: np.ndarray) -> None:
        """Retain a copy of one sampled buffer's original values."""
        if not self.want(buffer_index):
            return
        self._stash[(buffer_index, axis)] = np.array(
            original, dtype=np.float64, copy=True
        )

    def pop(self, buffer_index: int, axis: int) -> np.ndarray | None:
        """The stashed original for one chunk, if it was sampled."""
        return self._stash.pop((buffer_index, axis), None)

    def clear(self) -> None:
        """Drop retained originals and landed chunks (abort paths)."""
        self._stash.clear()
        self._landed.clear()

    def land(
        self, session, blob: bytes, *, buffer_index: int, axis: int
    ) -> list[QualityReport]:
        """Hand over one encoded chunk from its encode ``session``.

        Returns the buffer's reports (one per sampled axis) when this was
        the last of its stashed chunks to land, else an empty list.
        """
        original = self.pop(buffer_index, axis)
        if original is None:
            return []
        landed = self._landed.setdefault(buffer_index, [])
        landed.append((axis, session, blob, original))
        if any(b == buffer_index for b, _ in self._stash):
            return []
        del self._landed[buffer_index]
        return self.audit(buffer_index, landed)

    def audit(self, buffer_index: int, chunks) -> list[QualityReport]:
        """Round-trip one buffer's chunks and record quality metrics.

        ``chunks`` holds ``(axis, session, blob, original)`` per audited
        axis, ``session`` being the *encode* session the blob came from.
        The chunks decode in one pass through ``session.clone()`` — a
        fresh session that decodes as a reader would — so the audit
        exercises the real decode path.  If that pass raises, each chunk
        decodes alone: only a broken chunk is a violation, and its report
        carries its own error.  Returns one report per chunk.
        """
        with get_recorder().timer("quality.audit"):
            return [
                self._report(buffer_index, *chunk, *decoded)
                for chunk, decoded in zip(chunks, _decode(chunks))
            ]

    def _report(
        self, buffer_index, axis, session, blob, original, recon, decode_error
    ) -> QualityReport:
        """Measure one decoded chunk against its original and record."""
        recorder = get_recorder()
        original = np.asarray(original, dtype=np.float64)
        bound = float(session.error_bound)
        if recon is not None and recon.shape != original.shape:
            decode_error = (
                f"ValueError: decoded shape {recon.shape} != original "
                f"{original.shape}"
            )
            recon = None
        if recon is None:
            max_err = math.inf
            psnr = -math.inf
        else:
            recon = np.asarray(recon, dtype=np.float64)
            max_err = float(np.max(np.abs(original - recon)))
            psnr = _psnr(original, recon)
        ratio = original.size * 4 / max(len(blob), 1)  # float32 convention
        within = decode_error is None and max_err <= bound * (1.0 + BOUND_RTOL)
        report = QualityReport(
            buffer_index=int(buffer_index),
            axis=int(axis),
            rows=int(original.shape[0]),
            values=int(original.size),
            error_bound=bound,
            compressed_bytes=len(blob),
            max_abs_error=max_err,
            psnr=psnr,
            ratio=ratio,
            within_bound=within,
            decode_error=decode_error,
        )
        self.audited.append((int(buffer_index), int(axis)))
        if recorder.enabled:
            recorder.count("quality.audits")
            recorder.count("quality.audited_values", original.size)
            recorder.gauge("quality.max_abs_error", max_err)
            recorder.gauge("quality.psnr", psnr)
            recorder.gauge("quality.ratio", ratio)
            margin = max_err / bound if bound > 0 else math.inf
            recorder.gauge("quality.bound_margin", margin)
        if not within:
            self.violations += 1
            detail = (
                f"buffer {buffer_index} axis {axis}: "
                + (
                    f"decode failed: {decode_error}"
                    if decode_error
                    else f"max error {max_err:.3e} > bound {bound:.3e}"
                )
            )
            recorder.count("quality.bound_violations")
            recorder.event("quality.bound_violation", detail)
            _log.error(
                "error-bound violation: %s",
                detail,
                extra={"quality": report.to_dict()},
            )
        return report
