"""The ADP members: one table, in wire-id order.

MDZ's ADP selector wins because it can pick the best member per buffer,
which is only as valuable as the pool it picks from.  Which members
exist is one decision, written down once: :data:`MEMBERS`.  Every place
that lists members reads it — the wire ids (:data:`METHOD_IDS`,
:data:`METHOD_NAMES`), the default ADP pool, the method check of
:class:`~repro.core.config.MDZConfig`, the CLI ``--method`` choices, the
``mdz-<name>`` baseline compressors and the generated member table in
``docs/stages.md``.

A member composes its predictor, quantizer and encoder stages in code,
as SZ3 does; there is no stage lookup.  Adding a member is one module
implementing the :class:`~repro.core.methods.MDZMethod` contract
(``prepare`` / ``serialize`` / ``reconstruction`` / ``parse`` — see
``docs/stages.md``) plus one row here, with the next unused wire id.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError
from .bitadaptive import BitAdaptiveMethod
from .interp import InterpMethod
from .methods import MDZMethod
from .mt import MTMethod
from .vq import VQMethod
from .vqt import VQTMethod

#: The ADP candidate pool used when none is configured.  This is the
#: paper's original three-way trial; archives produced with it are pinned
#: byte-identical to the pre-registry seed (tools/legacy_digests.py).
DEFAULT_MEMBERS = ("vq", "vqt", "mt")


@dataclass(frozen=True)
class MethodEntry:
    """One ADP member: its wire id and its shared stateless instance.

    Methods carry no per-session state (that lives in
    :class:`~repro.core.methods.MethodState`), so one instance serves
    every session and trial.  ``needs_reference`` marks members whose
    encode and decode read the session reference snapshot.  It is the
    one input of the random-access rule: a session whose members all
    leave it unset decodes any buffer without buffer 0
    (:attr:`~repro.core.mdz.MDZAxisCompressor.supports_random_access`).
    """

    method_id: int
    method: MDZMethod
    needs_reference: bool
    description: str

    @property
    def name(self) -> str:
        return self.method.name


#: Every member, in wire-id order.  Wire ids are stored in every buffer
#: tag and are never reused (``docs/formats.md#method-payloads``).
MEMBERS = (
    MethodEntry(
        1,
        VQMethod(),
        needs_reference=False,
        description="Vector-quantization: every point predicted by its "
        "nearest crystal-level centroid; buffers decode in isolation "
        "(Algorithm 1)",
    ),
    MethodEntry(
        2,
        VQTMethod(),
        needs_reference=False,
        description="VQ head + time-based tail: spatial levels pay for the "
        "buffer head, temporal smoothness for the rest (Section VI-A)",
    ),
    MethodEntry(
        3,
        MTMethod(),
        needs_reference=True,
        description="Multi-level time-based: buffer head predicted from the "
        "session reference snapshot (Lorenzo bootstrap for the first "
        "buffer), tail chained time-wise (Section VI-B)",
    ),
    MethodEntry(
        4,
        InterpMethod(),
        needs_reference=False,
        description="SZ3-style temporal interpolation cascade (linear/cubic "
        "chosen per buffer); residuals track second differences, so it "
        "wins on smoothly curving trajectories",
    ),
    MethodEntry(
        5,
        BitAdaptiveMethod(),
        needs_reference=True,
        description="MT prediction with per-region (offset, bit-width) fixed "
        "packing instead of Huffman; wins when local code ranges differ "
        "across a buffer (arXiv 2404.02826)",
    ),
)

_ENTRIES = {entry.name: entry for entry in MEMBERS}

#: Wire id of every member, and its inverse (the container's method tag).
METHOD_IDS = {entry.name: entry.method_id for entry in MEMBERS}
METHOD_NAMES = {entry.method_id: entry.name for entry in MEMBERS}


def method_names() -> tuple[str, ...]:
    """Every member, in wire-id order."""
    return tuple(_ENTRIES)


def method_entry(name: str) -> MethodEntry:
    """The table row for ``name``; raises ``ConfigurationError``."""
    try:
        return _ENTRIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown method {name!r}; members: {', '.join(sorted(_ENTRIES))}"
        ) from None


def get_method(name: str) -> MDZMethod:
    """The shared stateless instance of the named member."""
    return method_entry(name).method


def validate_members(members: tuple[str, ...]) -> tuple[str, ...]:
    """Normalize + validate an ADP candidate pool; returns a tuple.

    Raises :class:`ConfigurationError` for an empty pool, duplicates, or
    a name that is not a member.
    """
    members = tuple(members)
    if not members:
        raise ConfigurationError(
            "the ADP member pool must name at least one method"
        )
    if len(set(members)) != len(members):
        raise ConfigurationError(
            f"duplicate entries in ADP member pool {members}"
        )
    for name in members:
        method_entry(name)  # raises with the member list
    return members
