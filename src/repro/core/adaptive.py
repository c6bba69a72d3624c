"""ADP: adaptive selection of the best compressor (Section VI-D).

Data patterns are stable in the short term but drift over a long
simulation (Figure 10: MT leads before snapshot ~400 on Copper-B, VQT
after).  ADP therefore re-evaluates VQ, VQT, and MT periodically: every
``interval`` buffers (the paper: every 50 compression operations) the
current buffer is compressed with all three methods *independently*, the
smallest output wins, and the winner codes the following buffers alone.
The trial costs under ~6 % of total compression time at the default
interval, matching the paper's overhead budget.

Selection happens per axis — Table VI shows ADP picking VQ for x/y and MT
for z on Copper-B — which falls out naturally here because every axis
stream runs its own session.

Trials are exhaustive, as in the paper: every member independently
runs its fused ``prepare`` kernels, serializes its payload and
dictionary-codes it, and the smallest *final* size wins.  The winner's
payload is the one the trial produced, so a trial costs no extra encode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sz.lossless import lossless_compress
from ..telemetry import get_recorder
from .methods import MethodState
from .registry import DEFAULT_MEMBERS, get_method, validate_members


@dataclass
class SelectionRecord:
    """One ADP evaluation: the buffer index, each member's dictionary-coded
    trial size, and the winner."""

    buffer_index: int
    sizes: dict[str, int]
    chosen: str


@dataclass
class ADPSelector:
    """Periodic multi-way trial; keeps the winning method between trials.

    The candidate pool is configurable (``members``): any subset of the
    member table (:data:`repro.core.registry.MEMBERS`), so ``interp`` and
    ``bitadaptive`` join the trial by name with no selector changes.  The
    default pool is the paper's three-way VQ/VQT/MT trial.
    """

    interval: int = 50
    members: tuple[str, ...] = DEFAULT_MEMBERS
    current: str | None = None
    buffers_seen: int = 0
    history: list[SelectionRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.members = validate_members(self.members)

    def trial_due(self) -> bool:
        """True when the next buffer must run a multi-way trial.

        Trials run at the session start, at every `interval`, and once at
        buffer 1: the first buffer biases MT (its reference does not
        exist yet, so it pays the Lorenzo bootstrap), and the follow-up
        removes that bias as soon as the reference is in place.
        """
        return (
            self.current is None
            or self.buffers_seen == 1
            or self.buffers_seen % self.interval == 0
        )

    def note_external(self) -> str:
        """Account for a buffer encoded outside the selector.

        The streaming executor dispatches non-trial buffers to worker
        processes; the session-side selector still has to advance its
        buffer counter so later trials fire on schedule.  Returns the
        method the external encoder must use.
        """
        if self.trial_due():
            raise RuntimeError(
                "cannot encode a trial buffer externally: the selector "
                "must run the multi-way trial in-session"
            )
        self.buffers_seen += 1
        return self.current

    def encode(
        self, batch: np.ndarray, state: MethodState
    ) -> tuple[str, bytes, np.ndarray]:
        """Encode one buffer, re-evaluating the method when due.

        Returns ``(method_name, payload, reconstruction)``.  Trials run on
        cloned state so the losers cannot disturb the session; the winning
        trial's payload is reused directly (its state inputs are
        value-identical to the session's).
        """
        if self.trial_due():
            recorder = get_recorder()
            # The absorb span keeps the losers' stage annotations (their
            # Huffman fan-out, OOS counts, ...) out of the enclosing
            # buffer's provenance record; the trial *outcome* is
            # annotated after the span closes, so it does land there.
            with recorder.timer("adp.trial"), \
                    recorder.span("adp.trial", absorb=True):
                # Members are ranked by *final* size: the dictionary coder
                # is where e.g. VQ's repeated level-index streams
                # collapse, so ranking raw payloads would misjudge them.
                prepared: dict[str, object] = {}
                blobs: dict[str, bytes] = {}
                sizes: dict[str, int] = {}
                for name in self.members:
                    method = get_method(name)
                    with recorder.span(f"adp.trial.{name}", absorb=True):
                        trial_state = state.clone_for_trial()
                        prepared[name] = method.prepare(batch, trial_state)
                        blobs[name] = method.serialize(
                            prepared[name], trial_state
                        )
                    sizes[name] = len(
                        lossless_compress(blobs[name], state.lossless_backend)
                    )
            previous = self.current
            self.current = min(sizes, key=lambda name: (sizes[name], name))
            recorder.annotate(
                adp_trial=True, adp_sizes=sizes, adp_chosen=self.current
            )
            if recorder.enabled:
                recorder.count("adp.trials")
                recorder.count(f"adp.winner.{self.current}")
                if previous is not None and previous != self.current:
                    recorder.count("adp.switches")
                for name, size in sizes.items():
                    recorder.count(f"adp.trial_bytes.{name}", size)
            self.history.append(
                SelectionRecord(
                    buffer_index=self.buffers_seen,
                    sizes=sizes,
                    chosen=self.current,
                )
            )
            blob = blobs[self.current]
            recon = get_method(self.current).reconstruction(
                prepared[self.current]
            )
        else:
            blob, recon = get_method(self.current).encode(batch, state)
        self.buffers_seen += 1
        return self.current, blob, recon

    def reset(self) -> None:
        """Forget all selection state (new session)."""
        self.current = None
        self.buffers_seen = 0
        self.history.clear()
