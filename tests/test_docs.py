"""Documentation integrity: every markdown reference resolves.

Runs :mod:`tools.check_docs_links` over the repository in-process, so a
renamed module or a moved doc breaks the tier-1 suite, not just the CI
docs job.  Also pins the checker's own behaviour (slug rules, shorthand
path resolution) with synthetic fixtures.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs_links  # noqa: E402
import list_metrics  # noqa: E402
import list_stages  # noqa: E402


def test_repo_docs_have_no_broken_references():
    problems = check_docs_links.check(REPO_ROOT)
    assert problems == [], "\n".join(problems)


def test_metrics_reference_is_in_sync():
    """docs/metrics.md must match what the source tree actually emits."""
    expected = list_metrics.generate(REPO_ROOT)
    path = REPO_ROOT / "docs" / "metrics.md"
    assert path.exists(), "docs/metrics.md missing; run tools/list_metrics.py"
    assert path.read_text() == expected, (
        "docs/metrics.md is stale; run `python tools/list_metrics.py`"
    )


def test_stages_reference_is_in_sync():
    """The member table in docs/stages.md must match the registry."""
    path = REPO_ROOT / "docs" / "stages.md"
    assert path.exists(), "docs/stages.md missing"
    current = path.read_text()
    assert current == list_stages.render(current), (
        "docs/stages.md member table is stale; "
        "run `python tools/list_stages.py`"
    )


def test_stages_tables_list_every_member():
    """Each registered member appears as a row of the generated block."""
    block = list_stages.generate_block()
    for name in ("vq", "vqt", "mt", "interp", "bitadaptive"):
        assert f"| `{name}` |" in block


def test_metrics_scan_sees_the_core_instruments():
    """The scanner's regex keeps finding the known load-bearing metrics."""
    found = list_metrics.scan(REPO_ROOT)
    assert "quality.bound_violations" in found["count"]
    assert "quality.max_abs_error" in found["gauge"]
    assert "quality.audit" in found["timer"]
    assert "service.request.<method> <path>" in found["observe"]
    assert "stream.executor.job_failed" in found["event"]


def test_checker_flags_broken_link_and_anchor(tmp_path):
    (tmp_path / "real.md").write_text("# A Heading\n\ntext\n")
    (tmp_path / "doc.md").write_text(
        "[ok](real.md)\n"
        "[ok anchor](real.md#a-heading)\n"
        "[bad file](gone.md)\n"
        "[bad anchor](real.md#missing)\n"
        "[bad self anchor](#nowhere)\n"
    )
    problems = check_docs_links.check(tmp_path)
    assert len(problems) == 3
    assert any("gone.md" in p for p in problems)
    assert any("real.md#missing" in p for p in problems)
    assert any("#nowhere" in p for p in problems)


def test_checker_ignores_code_fences_and_external_links(tmp_path):
    (tmp_path / "doc.md").write_text(
        "[ext](https://example.com/gone)\n"
        "```\n[fenced](nope.md) and `fenced/path.py`\n```\n"
    )
    assert check_docs_links.check(tmp_path) == []


def test_checker_resolves_shorthand_source_paths(tmp_path):
    (tmp_path / "src" / "repro" / "sz").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "sz" / "huffman.py").write_text("")
    (tmp_path / "doc.md").write_text(
        "see `sz/huffman.py` and `repro/sz/huffman.py`"
        " and `src/repro/sz/huffman.py`, but not `sz/gone.py`\n"
    )
    problems = check_docs_links.check(tmp_path)
    assert len(problems) == 1 and "sz/gone.py" in problems[0]


def test_slugify_matches_github_rules():
    slug = check_docs_links._slugify
    assert slug("Crash safety") == "crash-safety"
    assert slug("The `MDZ2` chunk frame layout") == "the-mdz2-chunk-frame-layout"
    assert slug("How MDZ works (paper § VI)") == "how-mdz-works-paper--vi"
    assert slug("readable / lost / tail") == "readable--lost--tail"
