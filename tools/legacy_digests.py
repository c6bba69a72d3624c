#!/usr/bin/env python
"""Pin legacy-member payload bytes against the committed MDZ1 fixtures.

``tests/data/mdz1/`` holds the 12 canonical archives the monolithic MDZ1
writer produced on the pre-registry seed: one deterministic synthetic
trajectory compressed under every legacy method (VQ / VQT / MT and the
default ADP pool) crossed with three framing variants.
``tests/data/legacy_digests.json`` pins each file's BLAKE2b digest.

Nothing writes MDZ1 any more; today's ``write_container`` writes MDZ2.
What must not move is the per-(buffer, axis) payload each session
produces, so ``--check`` verifies, per configuration, that

* the fixture still matches its pinned digest;
* today's archive carries the same per-(buffer, axis) payloads, error
  bounds and header fields as the fixture;
* both archives decode bit-identically::

    python tools/legacy_digests.py --check    # exit 1 on any drift (CI)

``tests/test_registry.py`` runs the same checks in-process so a drift
breaks the tier-1 suite, and the CI entropy-smoke job runs ``--check``
so it also fails fast with one line per configuration that moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

DIGEST_PATH = Path("tests") / "data" / "legacy_digests.json"
FIXTURE_DIR = Path("tests") / "data" / "mdz1"

#: The 12 canonical container configurations: every legacy method crossed
#: with three framing variants (sequence ordering, entropy fan-out, and
#: the trailing dictionary coder).
VARIANTS = {
    "seq2-zlib": dict(sequence_mode="seq2", lossless_backend="zlib",
                      entropy_streams=None),
    "seq1-h1-zlib": dict(sequence_mode="seq1", lossless_backend="zlib",
                         entropy_streams=1),
    "seq2-lzma": dict(sequence_mode="seq2", lossless_backend="lzma",
                      entropy_streams=None),
}
METHODS = ("vq", "vqt", "mt", "adp")


def pinned_trajectory() -> np.ndarray:
    """The deterministic (16, 120, 3) trajectory every fixture derives from.

    Level-structured space plus smooth temporal drift, so VQ, VQT, and MT
    all see the regime they were built for and ADP's trials exercise all
    three members.
    """
    rng = np.random.default_rng(20260807)
    levels = rng.integers(0, 9, (120, 3)) * 1.7
    vibration = rng.normal(0.0, 0.03, (16, 120, 3))
    drift = np.cumsum(rng.normal(0.0, 0.004, (16, 1, 3)), axis=0)
    return levels[None, :, :] + vibration + drift


def configs() -> dict:
    """``{config key: MDZConfig}`` over the 12 configurations."""
    from repro.core.config import MDZConfig

    return {
        f"{method}/{variant}": MDZConfig(
            error_bound=1e-3, buffer_size=5, method=method, **fields
        )
        for method in METHODS
        for variant, fields in VARIANTS.items()
    }


def fixture_path(root: Path, key: str) -> Path:
    """The committed MDZ1 archive of configuration ``key``."""
    return root / FIXTURE_DIR / (key.replace("/", "-") + ".mdz")


def compute(root: Path = REPO_ROOT) -> dict:
    """``{config key: blake2b hexdigest}`` of the 12 MDZ1 fixtures."""
    return {
        key: hashlib.blake2b(
            fixture_path(root, key).read_bytes(), digest_size=16
        ).hexdigest()
        for key in configs()
    }


def load(root: Path) -> dict:
    return json.loads((root / DIGEST_PATH).read_text())


def payloads(blob: bytes) -> tuple[dict, int, dict]:
    """``(header, snapshots, {(buffer, axis): payload})`` of an archive
    of either generation."""
    from repro.io.container import open_layout
    from repro.stream.format import chunk_payload

    layout = open_layout(blob)
    return layout.header, layout.snapshots, {
        (c.buffer_index, c.axis): chunk_payload(blob, c)
        for c in layout.chunks
    }


def compare(legacy: bytes, current: bytes) -> list[str]:
    """How ``current`` departs from the ``legacy`` archive: per-(buffer,
    axis) payloads, the header fields both generations record (error
    bounds included), the snapshot count, and the decoded values."""
    from repro.io.container import read_container

    old_header, old_snapshots, old_payloads = payloads(legacy)
    new_header, new_snapshots, new_payloads = payloads(current)
    problems = []
    if old_payloads != new_payloads:
        moved = sorted(
            k for k in old_payloads.keys() | new_payloads.keys()
            if old_payloads.get(k) != new_payloads.get(k)
        )
        problems.append(f"payloads differ at (buffer, axis) {moved}")
    # MDZ2 keeps the snapshot count in its footer and records no dtype.
    shared = (old_header.keys() | new_header.keys()) - {"snapshots", "dtype"}
    for name in sorted(shared):
        if old_header.get(name) != new_header.get(name):
            problems.append(
                f"header {name!r}: {old_header.get(name)!r} != "
                f"{new_header.get(name)!r}"
            )
    if old_snapshots != new_snapshots:
        problems.append(f"snapshots: {old_snapshots} != {new_snapshots}")
    old_values, new_values = read_container(legacy), read_container(current)
    if (
        old_values.shape != new_values.shape
        or old_values.tobytes() != new_values.tobytes()
    ):
        problems.append("decoded values differ")
    return problems


def check(root: Path = REPO_ROOT) -> list[str]:
    """Every drift found, one line each; empty when all 12 agree."""
    from repro.exceptions import ReproError
    from repro.io.container import write_container

    pinned = load(root)["digests"]
    found = compute(root)
    problems = [
        f"{key}: fixture digest {found.get(key, '<absent>')} != pinned "
        f"{pinned.get(key, '<absent>')}"
        for key in sorted(pinned.keys() | found.keys())
        if found.get(key) != pinned.get(key)
    ]
    trajectory = pinned_trajectory()
    for key, config in configs().items():
        legacy = fixture_path(root, key).read_bytes()
        current = write_container(trajectory, config)
        try:
            problems += [f"{key}: {p}" for p in compare(legacy, current)]
        except ReproError as exc:  # a damaged fixture no longer decodes
            problems.append(f"{key}: {exc}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT)
    parser.add_argument("--check", action="store_true", required=True,
                        help="exit 1 when any fixture or payload drifted")
    args = parser.parse_args(argv)
    problems = check(args.root)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"all {len(configs())} legacy fixtures match their digests, "
          "payloads and decoded values")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
