"""Sampled error-bound auditing of freshly encoded buffers.

MDZ's whole contract is the error bound, yet nothing in a running
pipeline ever re-checks it: the encoder trusts its own reconstruction
and the decoder is usually on another machine, weeks later.  The
:class:`QualityAuditor` closes that loop in production at a sampled
cost: for a deterministic subset of buffers it round-trips the encoded
blob through a fresh reader-equivalent decode session
(:meth:`MDZAxisCompressor.audit_decoder
<repro.core.mdz.MDZAxisCompressor.audit_decoder>`) and compares the
reconstruction against the original values.

Sampling is by *global buffer index* (``buffer_index % interval == 0``,
default every 32nd buffer), never by randomness or wall clock, so a
serial run and a ``--workers N`` run audit exactly the same buffers —
the same determinism discipline as the byte-identical encode guarantee.
The audit never touches the encode path: archives are byte-identical
with auditing on, off, or at any interval.

Per audited buffer the auditor records (metric definitions match
:mod:`repro.analysis.metrics`, the paper's Section VII-C):

* gauges ``quality.max_abs_error``, ``quality.psnr``, ``quality.ratio``,
  ``quality.bound_margin`` (max error / bound: 1.0 = at the bound);
* counters ``quality.audits`` / ``quality.audited_values``; the timer
  ``quality.audit`` bounds the overhead.

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


class QualityAuditor:
    """Deterministically sampled round-trip auditing for one stream.

    The owner (streaming writer or container assembler) drives three
    steps, all keyed by the global buffer index so the parallel path —
    where encode results return out of order — audits the same buffers
    as serial:

    1. :meth:`want` — should this buffer be audited?
    2. :meth:`stash` — retain a copy of the original values at flush
       time (the only moment they are still in hand);
    3. :meth:`audit` — once the encoded blob exists, round-trip and
       record.

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
        """Drop retained originals (abort paths)."""
        self._stash.clear()

    def audit(
        self,
        session,
        blob: bytes,
        original: np.ndarray,
        *,
        buffer_index: int,
        axis: int,
    ) -> QualityReport:
        """Round-trip ``blob`` and record quality metrics.

        ``session`` is the *encode* session the blob came from; decoding
        happens in a fresh reader-equivalent session derived from it, so
        the audit exercises the real decode path.
        """
        recorder = get_recorder()
        original = np.asarray(original, dtype=np.float64)
        bound = float(session.error_bound)
        decode_error: str | None = None
        with recorder.timer("quality.audit"):
            try:
                recon = np.asarray(
                    session.audit_decoder().decompress_batch(blob),
                    dtype=np.float64,
                )
                if recon.shape != original.shape:
                    raise ValueError(
                        f"decoded shape {recon.shape} != original "
                        f"{original.shape}"
                    )
            except Exception as exc:  # decode failure = hard violation
                decode_error = f"{type(exc).__name__}: {exc}"
                recon = None
            if recon is None:
                max_err = math.inf
                psnr = -math.inf
            else:
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
