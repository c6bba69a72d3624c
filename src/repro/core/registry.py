"""The method registry: ADP members looked up by name.

MDZ's multi-algorithm ADP selector wins because it can pick the best
member per buffer — which is only as valuable as the pool of members it
can pick from.  This module keeps that pool open: compression *methods*
(the ADP-selectable members) are looked up by name instead of being
hard-wired into ``core/mdz.py`` and ``core/adaptive.py``.

The shape is the classic name -> factory lookup dict.  A member composes
its predictor, quantizer and encoder stages in code, as SZ3 does; there
is no stage lookup.  Adding a member is:

1. implement the :class:`~repro.core.methods.MDZMethod` contract
   (``prepare`` / ``serialize`` / ``reconstruction`` / ``decode`` — see
   ``docs/stages.md`` for the worked tutorial);
2. reserve a wire id in :data:`~repro.core.methods.METHOD_IDS`;
3. call :func:`register_method` at module import and list the module in
   :func:`ensure_members`.

Everything else — ADP trials, the streaming executor's out-of-session
dispatch, container method tags, ``mdz info`` summaries, the CLI
``--methods`` flag, and the generated member table in ``docs/stages.md``
— picks the new member up from the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..exceptions import ConfigurationError
from .methods import METHOD_IDS, MDZMethod

#: The ADP candidate pool used when none is configured.  This is the
#: paper's original three-way trial; archives produced with it are pinned
#: byte-identical to the pre-registry seed (tools/legacy_digests.py).
DEFAULT_MEMBERS = ("vq", "vqt", "mt")


@dataclass(frozen=True)
class MethodEntry:
    """One registered compression member.

    ``needs_reference`` marks members whose encode and decode read the
    session reference snapshot.  It is the one input of the random-access
    rule: a session whose members all leave it unset decodes any buffer
    without buffer 0
    (:attr:`~repro.core.mdz.MDZAxisCompressor.supports_random_access`).
    """

    name: str
    method_id: int
    factory: Callable[[], MDZMethod]
    needs_reference: bool
    description: str


_METHODS: dict[str, MethodEntry] = {}
_INSTANCES: dict[str, MDZMethod] = {}


def register_method(
    name: str,
    factory: Callable[[], MDZMethod],
    *,
    needs_reference: bool = False,
    description: str,
) -> Callable[[], MDZMethod]:
    """Register an ADP-selectable member under its wire id.

    The wire id comes from :data:`~repro.core.methods.METHOD_IDS` — the
    single source of truth for the container format — so a member cannot
    be registered without a reserved id, and two members cannot collide.
    """
    if name not in METHOD_IDS:
        raise ConfigurationError(
            f"method {name!r} has no wire id; reserve one in "
            "repro.core.methods.METHOD_IDS first"
        )
    if name in _METHODS:
        raise ConfigurationError(f"duplicate method registration {name!r}")
    _METHODS[name] = MethodEntry(
        name=name,
        method_id=METHOD_IDS[name],
        factory=factory,
        needs_reference=needs_reference,
        description=description,
    )
    return factory


def ensure_members() -> None:
    """Import every built-in member module (idempotent).

    Registration happens at module import; this gives every consumer a
    one-call way to guarantee the registry is fully populated without
    eagerly importing the whole package at ``import repro``.
    """
    from . import bitadaptive, interp, mt, vq, vqt  # noqa: F401


def method_entry(name: str) -> MethodEntry:
    """The registry entry for ``name``; raises ``ConfigurationError``."""
    ensure_members()
    try:
        return _METHODS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown method {name!r}; registered: "
            f"{', '.join(sorted(_METHODS))}"
        ) from None


def get_method(name: str) -> MDZMethod:
    """The shared stateless instance of the named member.

    Methods carry no per-session state (that lives in
    :class:`~repro.core.methods.MethodState`), so one instance serves
    every session and trial.
    """
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = method_entry(name).factory()
        _INSTANCES[name] = instance
    return instance


def method_names() -> tuple[str, ...]:
    """Every registered member, in wire-id order."""
    ensure_members()
    return tuple(sorted(_METHODS, key=lambda n: _METHODS[n].method_id))


def method_entries() -> tuple[MethodEntry, ...]:
    ensure_members()
    return tuple(
        _METHODS[name] for name in method_names()
    )


def validate_members(members: tuple[str, ...]) -> tuple[str, ...]:
    """Normalize + validate an ADP candidate pool; returns a tuple.

    Raises :class:`ConfigurationError` for an empty pool, duplicates, or
    an unregistered name.
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
        method_entry(name)  # raises with the registered-names list
    return members
