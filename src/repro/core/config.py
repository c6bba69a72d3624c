"""Configuration for the MDZ compressor.

Defaults follow the paper: value-range-relative error bound, buffer size 10,
quantization scale 1024 (the Figure 9 sweet spot), Seq-2 code ordering
(Table III), adaptive method selection re-evaluated every 50 buffers
(Section VI-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ConfigurationError
from .registry import DEFAULT_MEMBERS, method_names, validate_members

#: Error-bound interpretation modes.
ERROR_BOUND_MODES = ("value_range", "absolute")

#: Sequence (quantization-code ordering) modes; Seq-2 is particle-major.
SEQUENCE_MODES = ("seq1", "seq2")


@dataclass
class MDZConfig:
    """All tunables of the MDZ compressor.

    Attributes
    ----------
    error_bound:
        The bound value; interpreted according to ``error_bound_mode``.
        Default 1e-3 (the paper's headline setting).
    error_bound_mode:
        ``"value_range"`` — absolute bound is ``error_bound * (max - min)``
        per axis (the paper's epsilon), where the range is the whole
        trajectory's for a one-shot compress (``MDZ.compress``,
        ``write_container``) and the first buffer's for a streaming
        producer, which never sees the whole trajectory; or
        ``"absolute"`` — used verbatim.
    buffer_size:
        Snapshots per buffer (BS); the paper sweeps 10/50/100.
    quantization_scale:
        Number of representable quantization integers (Section VI-C1).
    sequence_mode:
        ``"seq2"`` (particle-major, default) or ``"seq1"`` (Table III).
    method:
        ``"adp"`` (default) or a fixed member, any name in
        :data:`repro.core.registry.MEMBERS` — ``"vq"``, ``"vqt"``,
        ``"mt"``, ``"interp"``, or ``"bitadaptive"``.
    adp_members:
        The candidate pool ADP trials choose from (ignored for fixed
        methods).  Defaults to the paper's three-way VQ/VQT/MT trial;
        any member may be listed (``docs/stages.md``).  The
        container/stream header records a non-default pool.
    adaptation_interval:
        Buffers between ADP re-evaluations (the paper: every 50
        compression operations).
    lossless_backend:
        Trailing dictionary coder (``"zlib"``, ``"lzma"``, ``"bz2"``).
    level_seed:
        Seed for the k-means sampling in the level detector.
    entropy_streams:
        Huffman sub-stream fan-out for the entropy stage.  ``None``
        (default) lets the codec scale the count with the array size;
        ``1`` forces the legacy single-stream blob format; larger values
        force that many interleaved H2 streams — see
        :meth:`repro.sz.huffman.HuffmanCodec.encode`.
    audit_interval:
        Quality-audit sampling interval: every ``audit_interval``-th
        buffer (per axis, by global buffer index) is round-trip decoded
        and checked against the error bound
        (:class:`repro.telemetry.quality.QualityAuditor`).  ``0``
        disables auditing.  Auditing never changes the encoded bytes.
    """

    error_bound: float = 1e-3
    error_bound_mode: str = "value_range"
    buffer_size: int = 10
    quantization_scale: int = 1024
    sequence_mode: str = "seq2"
    method: str = "adp"
    adp_members: tuple = DEFAULT_MEMBERS
    adaptation_interval: int = 50
    lossless_backend: str = "zlib"
    level_seed: int = 0
    entropy_streams: int | None = None
    audit_interval: int = 32

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.error_bound_mode not in ERROR_BOUND_MODES:
            raise ConfigurationError(
                f"error_bound_mode must be one of {ERROR_BOUND_MODES}, "
                f"got {self.error_bound_mode!r}"
            )
        if not self.error_bound > 0:
            raise ConfigurationError(
                f"error_bound must be positive, got {self.error_bound}"
            )
        if self.error_bound_mode == "value_range" and self.error_bound >= 1:
            raise ConfigurationError(
                "a value-range-relative bound >= 1 would erase the data; "
                f"got {self.error_bound}"
            )
        if self.buffer_size < 1:
            raise ConfigurationError(
                f"buffer_size must be >= 1, got {self.buffer_size}"
            )
        if self.quantization_scale < 4:
            raise ConfigurationError(
                f"quantization_scale must be >= 4, got {self.quantization_scale}"
            )
        if self.sequence_mode not in SEQUENCE_MODES:
            raise ConfigurationError(
                f"sequence_mode must be one of {SEQUENCE_MODES}, "
                f"got {self.sequence_mode!r}"
            )
        methods = ("adp", *method_names())
        if self.method not in methods:
            raise ConfigurationError(
                f"method must be one of {methods}, got {self.method!r}"
            )
        self.adp_members = tuple(self.adp_members)
        if self.method == "adp":
            validate_members(self.adp_members)
        if self.adaptation_interval < 1:
            raise ConfigurationError(
                f"adaptation_interval must be >= 1, got {self.adaptation_interval}"
            )
        if self.entropy_streams is not None and self.entropy_streams < 1:
            raise ConfigurationError(
                f"entropy_streams must be >= 1 (or None for auto), "
                f"got {self.entropy_streams}"
            )
        if self.audit_interval < 0:
            raise ConfigurationError(
                f"audit_interval must be >= 0 (0 disables auditing), "
                f"got {self.audit_interval}"
            )

    @property
    def layout(self) -> str:
        """Numpy flattening order implementing the sequence mode."""
        return "F" if self.sequence_mode == "seq2" else "C"

    def absolute_bound(self, value_range: float) -> float:
        """Resolve the configured bound to an absolute bound."""
        if self.error_bound_mode == "absolute":
            return self.error_bound
        if value_range <= 0:
            # Constant data: any positive bound preserves it exactly.
            return self.error_bound
        return self.error_bound * value_range
