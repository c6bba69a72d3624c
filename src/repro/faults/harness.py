"""The chaos harness: one faulted run, fully accounted.

:func:`run_chaos` executes the whole fault/recovery story for one
:class:`~repro.faults.plan.FaultPlan`:

1. a pristine reference run (no faults, serial) produces the expected
   archive bytes and the expected decoded trajectory;
2. the chaos run streams the same snapshots through a
   :class:`~repro.stream.writer.StreamingWriter` whose file handle and
   executor are the fault-injecting shims; a writer that gives up
   (fault outlasting the retry budget) is recorded as a crash, not an
   error — the file on disk at that instant is what a real crash
   leaves;
3. post-hoc faults (bit rot, truncation) damage the resulting bytes;
4. the damaged archive is audited (:func:`~repro.stream.format.verify_stream`)
   and, when not intact, salvage-read with full loss accounting.

The invariant the harness enforces — and chaos tests assert via
:attr:`ChaosResult.ok` — is **no silent data loss**: every run ends in
either a byte-exact archive or a salvage report whose readable + lost
(+ explicitly flagged unaccounted tail) covers every snapshot fed, with
every salvaged snapshot decoding byte-identical to the pristine run.
"""

from __future__ import annotations

import io
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.config import MDZConfig
from ..exceptions import CompressionError, ContainerFormatError
from ..stream.format import verify_stream
from ..stream.reader import StreamingReader
from ..stream.writer import StreamingWriter
from .injector import FaultyExecutor, FaultyFile, apply_posthoc
from .plan import FaultPlan


@dataclass
class ChaosResult:
    """Outcome of one :func:`run_chaos` invocation.

    ``outcome`` is ``"intact"`` (the archive verified clean),
    ``"salvaged"`` (damage detected, salvage read performed), or
    ``"destroyed"`` (nothing parseable survived — header gone or file
    empty; still a fully accounted outcome: everything is lost).
    """

    outcome: str
    #: Archive bytes equal the pristine run's (only meaningful when
    #: ``outcome == "intact"``; fault-free retries must not change bytes).
    byte_exact: bool
    #: Every salvaged buffer decoded byte-identical to the pristine
    #: trajectory at its snapshot range (vacuously True when intact).
    content_exact: bool
    #: readable + lost (+ explicit unaccounted tail) covers every
    #: snapshot fed — the no-silent-loss invariant.
    accounted: bool
    snapshots_fed: int
    readable_snapshots: int
    lost_snapshots: list[int] = field(default_factory=list)
    truncated_tail: bool = False
    #: The writer error message when the chaos run crashed, else None.
    crashed: str | None = None
    #: Human-readable notes of every fault actually fired.
    injected: list[str] = field(default_factory=list)
    verify: dict = field(default_factory=dict)
    salvage: dict | None = None
    plan: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """The no-silent-loss invariant held for this run."""
        if self.outcome == "intact":
            return self.byte_exact and not self.crashed
        return self.accounted and self.content_exact

    def to_json(self) -> dict:
        """JSON-serialisable form (chaos-smoke CI uploads these)."""
        return {
            "outcome": self.outcome,
            "ok": self.ok,
            "byte_exact": self.byte_exact,
            "content_exact": self.content_exact,
            "accounted": self.accounted,
            "snapshots_fed": self.snapshots_fed,
            "readable_snapshots": self.readable_snapshots,
            "lost_snapshots": self.lost_snapshots,
            "truncated_tail": self.truncated_tail,
            "crashed": self.crashed,
            "injected": self.injected,
            "verify": self.verify,
            "salvage": self.salvage,
            "plan": self.plan,
        }


def _destroyed(
    positions: np.ndarray,
    plan: FaultPlan,
    injected: list[str],
    crashed: str | None,
    reason: str,
) -> ChaosResult:
    """Total-loss result: nothing parseable survived, all accounted lost."""
    total = int(positions.shape[0])
    return ChaosResult(
        outcome="destroyed",
        byte_exact=False,
        content_exact=True,  # vacuous: nothing was salvaged
        accounted=True,  # explicit: every snapshot is lost
        snapshots_fed=total,
        readable_snapshots=0,
        lost_snapshots=list(range(total)),
        truncated_tail=True,
        crashed=crashed,
        injected=injected,
        verify={"errors": [reason]},
        salvage=None,
        plan=plan.to_json(),
    )


def run_chaos(
    positions: np.ndarray,
    plan: FaultPlan,
    config: MDZConfig | None = None,
    workers: int = 0,
    keep_path: str | Path | None = None,
) -> ChaosResult:
    """Stream ``positions`` through injected faults and account for it.

    Parameters
    ----------
    positions:
        ``(snapshots, atoms, axes)`` trajectory to compress.
    plan:
        The faults to inject (see :class:`~repro.faults.plan.FaultPlan`).
    config:
        MDZ configuration for both the pristine and the chaos run.
    workers:
        Worker processes for the chaos run's executor (the pristine
        reference always runs serial — parallel output is byte-identical
        by the executor's ordering invariant, so the reference is valid
        for both).  ``worker_fail`` faults need ``workers >= 2``: a
        serial writer submits no worker jobs, so they never fire.
    keep_path:
        When given, the damaged archive bytes are also written here
        (used by CI to upload chaos artifacts).

    Returns
    -------
    ChaosResult
        Never raises for in-plan faults; injector misuse (e.g. a
        post-hoc spec handed to the writer shim) still raises
        :class:`ValueError`.
    """
    positions = np.asarray(positions, dtype=np.float64)
    config = config if config is not None else MDZConfig()

    # 1. Pristine reference: expected bytes and expected decoded output.
    pristine_buf = io.BytesIO()
    with StreamingWriter(pristine_buf, config=config) as w:
        w.feed_many(positions)
    pristine = pristine_buf.getvalue()
    pristine_decoded = StreamingReader(pristine).read_all()

    # 2. Chaos run against a real file (fence rollback needs seek+truncate).
    injected: list[str] = []
    crashed: str | None = None
    with tempfile.TemporaryDirectory(prefix="mdz-chaos-") as tmp:
        target = Path(tmp) / "chaos.mdz"
        executor = FaultyExecutor(
            plan.worker_faults, counter_dir=tmp, workers=workers
        )
        with open(target, "w+b") as fh:
            shim = FaultyFile(fh, plan.write_faults)
            try:
                with StreamingWriter(
                    shim, config=config, executor=executor
                ) as writer:
                    writer.feed_many(positions)
            except (CompressionError, OSError) as exc:
                # CompressionError: the writer exhausted its chunk-commit
                # retries.  OSError: a permanently failing job escaped the
                # executor's retry budget.  Both are "the producer died".
                crashed = str(exc)
            finally:
                if crashed is None:
                    executor.close()
                else:
                    executor.terminate()
        injected.extend(shim.injected)
        injected.extend(executor.injected)
        blob = target.read_bytes()

    # 3. Post-hoc damage (bit rot, external truncation).
    blob = apply_posthoc(blob, plan.posthoc_faults)
    if keep_path is not None:
        Path(keep_path).write_bytes(blob)

    # 4. Audit and, if needed, salvage.
    total = int(positions.shape[0])
    if not blob:
        return _destroyed(
            positions, plan, injected, crashed, "archive is empty"
        )
    try:
        report = verify_stream(blob)
    except ContainerFormatError as exc:
        return _destroyed(positions, plan, injected, crashed, str(exc))

    if report["intact"] and crashed is None:
        return ChaosResult(
            outcome="intact",
            byte_exact=blob == pristine,
            content_exact=True,
            accounted=True,
            snapshots_fed=total,
            readable_snapshots=total,
            crashed=None,
            injected=injected,
            verify=report,
            salvage=None,
            plan=plan.to_json(),
        )

    reader = StreamingReader(blob, salvage=True)
    salvage = reader.salvage_report()
    content_exact = True
    for _, first, array in reader.iter_salvaged():
        expected = pristine_decoded[first : first + array.shape[0]]
        if not np.array_equal(array, expected):
            content_exact = False
            break
    covered = salvage.readable_snapshots + len(salvage.lost_snapshots)
    if salvage.expected_snapshots is not None:
        accounted = covered == salvage.expected_snapshots == total
    else:
        # Footer lost: the tail is explicitly unaccounted, everything
        # up to the damage must still be covered without overlap.
        accounted = salvage.truncated_tail and covered <= total
    return ChaosResult(
        outcome="salvaged",
        byte_exact=False,
        content_exact=content_exact,
        accounted=accounted,
        snapshots_fed=total,
        readable_snapshots=salvage.readable_snapshots,
        lost_snapshots=list(salvage.lost_snapshots),
        truncated_tail=salvage.truncated_tail,
        crashed=crashed,
        injected=injected,
        verify=report,
        salvage=salvage.to_json(),
        plan=plan.to_json(),
    )
