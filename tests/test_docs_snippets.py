"""Executable documentation, wired into the default suite.

Reuses the driver from ``benchmarks/run_docs_snippets.py``: every
fenced block tagged ``python runnable`` in the docs tree is executed
in isolation, so the examples the docs commit to can never rot.  Each
snippet is its own parametrized test case for readable failures, named
``file#heading-slug-N`` so prose edits elsewhere in a file keep the
name; failure messages locate the snippet as ``file:line``.
"""

import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parents[1]
_BENCH_DIR = _REPO_ROOT / "benchmarks"
if str(_BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(_BENCH_DIR))

from run_docs_snippets import (  # noqa: E402
    collect_snippets,
    extract_snippets,
    run_snippet,
)

_SNIPPETS = collect_snippets(_REPO_ROOT)


@pytest.mark.parametrize(
    "snippet", _SNIPPETS, ids=[s.test_id for s in _SNIPPETS]
)
def test_docs_snippet_executes(snippet):
    failure = run_snippet(snippet)
    assert failure is None, failure


def test_docs_tree_ships_enough_runnable_snippets():
    """The handbook contract: the docs tree keeps at least ten
    executable examples alive (api, performance, observability, ...)."""
    assert len(_SNIPPETS) >= 10, (
        f"only {len(_SNIPPETS)} runnable snippets found; "
        "tag examples with ```python runnable"
    )


def test_extractor_finds_tagged_blocks_only(tmp_path):
    doc = tmp_path / "sample.md"
    doc.write_text("\n".join([
        "# Sample",
        "```python runnable",
        "x = 1",
        "```",
        "```python",
        "not_executed()",
        "```",
        "```",
        "plain fence",
        "```",
        "```python runnable",
        "y = 2",
        "```",
    ]), encoding="utf-8")
    snippets = extract_snippets(doc, tmp_path)
    assert [s.lineno for s in snippets] == [2, 11]
    assert snippets[0].source == "x = 1\n"
    assert snippets[1].source == "y = 2\n"


def test_snippet_ids_follow_the_nearest_heading(tmp_path):
    doc = tmp_path / "ids.md"
    body = [
        "```python runnable",
        "a = 0",
        "```",
        "## Round trips & `errors=`",
        "```bash",
        "# not a heading",
        "```",
        "```python runnable",
        "b = 1",
        "```",
        "```python runnable",
        "c = 2",
        "```",
    ]
    doc.write_text("\n".join(body), encoding="utf-8")
    ids = [s.test_id for s in extract_snippets(doc, tmp_path)]
    assert ids == [
        "ids.md#1",
        "ids.md#round-trips--errors-1",
        "ids.md#round-trips--errors-2",
    ]
    # Prose added in another section moves the lines, not the ids.
    doc.write_text(
        "\n".join(["# Intro", "new prose", ""] + body), encoding="utf-8"
    )
    moved = extract_snippets(doc, tmp_path)
    assert [s.test_id for s in moved][1:] == ids[1:]
    assert moved[1].label == "ids.md:11"


def test_extractor_rejects_unterminated_fence(tmp_path):
    doc = tmp_path / "broken.md"
    doc.write_text("```python runnable\nx = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unterminated"):
        extract_snippets(doc, tmp_path)


def test_failing_snippet_reports_location(tmp_path):
    doc = tmp_path / "fail.md"
    doc.write_text("\n".join([
        "```python runnable",
        "raise RuntimeError('rotten example')",
        "```",
    ]), encoding="utf-8")
    snippet = extract_snippets(doc, tmp_path)[0]
    failure = run_snippet(snippet)
    assert failure is not None
    assert "fail.md:1" in failure
    assert "rotten example" in failure
