#!/usr/bin/env python
"""Generate the member table in ``docs/stages.md`` from the code.

Imports the member table (:data:`repro.core.registry.MEMBERS`) and
rewrites the marker-delimited block in ``docs/stages.md`` — one row per
member: name, wire id, whether it needs the session reference,
description — from the same rows the compressor resolves at runtime, so
the documentation cannot drift from what the code dispatches.  The prose
around the block is hand-written and untouched (unlike
``tools/list_metrics.py``, which owns its whole file).

The generated block is committed; ``tests/test_docs.py`` regenerates it
in-memory and fails when the two drift, so adding a member without
re-running this tool breaks the tier-1 suite with a one-line fix::

    python tools/list_stages.py            # rewrite the block in docs/stages.md
    python tools/list_stages.py --check    # exit 1 when stale (CI)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import registry  # noqa: E402

BEGIN = "<!-- BEGIN REGISTRY TABLES (tools/list_stages.py) -->"
END = "<!-- END REGISTRY TABLES -->"

DOC_PATH = Path("docs") / "stages.md"


def generate_block() -> str:
    """The member table, rendered from :data:`repro.core.registry.MEMBERS`."""
    lines = [
        BEGIN,
        "<!-- auto-generated — do not edit between these markers; "
        "run `python tools/list_stages.py` after adding a member -->",
        "",
        "| name | id | needs ref | description |",
        "|---|---|---|---|",
    ]
    for entry in registry.MEMBERS:
        lines.append(
            f"| `{entry.name}` | {entry.method_id} | "
            f"{'yes' if entry.needs_reference else 'no'} | "
            f"{entry.description} |"
        )
    lines.append("")
    lines.append(END)
    return "\n".join(lines)


def render(current: str) -> str:
    """``current`` with its marker block replaced by a fresh one."""
    start = current.find(BEGIN)
    end = current.find(END)
    if start < 0 or end < 0 or end < start:
        raise SystemExit(
            f"{DOC_PATH} is missing the {BEGIN!r} / {END!r} markers; "
            "restore them before regenerating"
        )
    return current[:start] + generate_block() + current[end + len(END):]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the docs/stages.md block is out of date",
    )
    args = parser.parse_args(argv)
    target = args.root / DOC_PATH
    if not target.exists():
        print(f"{target} does not exist", file=sys.stderr)
        return 1
    current = target.read_text()
    text = render(current)
    if args.check:
        if current != text:
            print(
                f"{target} is stale; run `python tools/list_stages.py`",
                file=sys.stderr,
            )
            return 1
        print(f"{target} is up to date")
        return 0
    target.write_text(text)
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
