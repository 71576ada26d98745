#!/usr/bin/env python
"""Docs snippet executor: runnable examples in the docs must run.

Walks every ``*.md`` file under ``docs/`` (plus the repo-root README),
extracts fenced code blocks whose info string is ``python runnable``,
and executes each one in a fresh namespace with the working directory
set to a throwaway temp dir.  A snippet that raises fails the check —
so the examples in ``docs/api.md``, ``docs/performance.md`` and
friends can never rot silently.

Tagging contract (documented in ``docs/README.md``)::

    ```python runnable
    from repro.api import compress
    ...
    ```

Snippets must be self-contained: they import what they use, build
their own data, and only write below the current directory (the
executor chdirs into a temp dir per snippet).  Plain ``python`` fences
stay non-executed — use them for fragments and pseudo-code.

Usage::

    PYTHONPATH=src python benchmarks/run_docs_snippets.py [--root PATH]
        [--verbose] [--list]

Exits non-zero and prints one line per failing snippet, located as
``file:line``.  The same driver backs ``tests/test_docs_snippets.py``,
so a broken example fails the suite, not a reader; there each snippet
is named ``file#heading-slug-N`` (the nearest heading above it and its
ordinal under that heading), so editing prose elsewhere in a file does
not rename it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

#: Opening fence of an executable example.  The info string must be
#: exactly ``python runnable`` (the tag is the opt-in).
_OPEN_RE = re.compile(r"^\s*```python runnable\s*$")
_CLOSE_RE = re.compile(r"^\s*```\s*$")
#: Any fence line: headings are only read outside fenced blocks.
_FENCE_RE = re.compile(r"^\s*```")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")

#: Directories never scanned (mirrors run_docs_linkcheck).
_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules",
              ".hypothesis", "results"}


@dataclass(frozen=True)
class Snippet:
    """One runnable fenced block: where it lives and what it says."""

    path: Path
    lineno: int  # 1-based line of the opening fence
    source: str
    #: Slug of the nearest heading above the snippet ("" when none).
    heading: str = ""
    #: 1-based position among the file's snippets under that heading.
    ordinal: int = 1

    @property
    def label(self) -> str:
        """Where the snippet is: ``file:line`` (failure messages)."""
        return f"{self.path}:{self.lineno}"

    @property
    def test_id(self) -> str:
        """Stable name: ``file#heading-slug-N``; edits outside the
        snippet's own section leave it unchanged."""
        anchor = f"{self.heading}-" if self.heading else ""
        return f"{self.path}#{anchor}{self.ordinal}"


def heading_slug(text: str) -> str:
    """GitHub-style anchor of a Markdown heading's text."""
    text = re.sub(r"[^\w\- ]", "", text.strip().lower())
    return text.replace(" ", "-")


def iter_doc_files(root: Path) -> list[Path]:
    """The Markdown files whose snippets we execute."""
    files = []
    docs = root / "docs"
    if docs.is_dir():
        for path in sorted(docs.rglob("*.md")):
            if any(part in _SKIP_DIRS for part in path.parts):
                continue
            files.append(path)
    readme = root / "README.md"
    if readme.is_file():
        files.append(readme)
    return files


def extract_snippets(path: Path, root: Path) -> list[Snippet]:
    """Runnable snippets from one Markdown document, in order."""
    snippets = []
    lines = path.read_text(encoding="utf-8").splitlines()
    block: list[str] | None = None
    in_other_fence = False
    open_line = 0
    heading = ""
    per_heading: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if block is None:
            if in_other_fence:
                in_other_fence = not _FENCE_RE.match(line)
            elif _OPEN_RE.match(line):
                block = []
                open_line = lineno
            elif _FENCE_RE.match(line):
                in_other_fence = True
            elif match := _HEADING_RE.match(line):
                heading = heading_slug(match.group(1))
        elif _CLOSE_RE.match(line):
            per_heading[heading] = per_heading.get(heading, 0) + 1
            snippets.append(Snippet(
                path=path.relative_to(root),
                lineno=open_line,
                source="\n".join(block) + "\n",
                heading=heading,
                ordinal=per_heading[heading],
            ))
            block = None
        else:
            block.append(line)
    if block is not None:
        raise ValueError(
            f"{path}:{open_line}: unterminated ```python runnable fence"
        )
    return snippets


def collect_snippets(root: Path | str = ".") -> list[Snippet]:
    """Every runnable snippet under ``root``, document order."""
    root = Path(root).resolve()
    snippets = []
    for path in iter_doc_files(root):
        snippets.extend(extract_snippets(path, root))
    return snippets


def run_snippet(snippet: Snippet) -> str | None:
    """Execute one snippet; return a failure description or None.

    Each snippet runs in a fresh module-like namespace with the
    working directory switched to a private temp dir, so examples may
    write files without littering the repo and cannot see each
    other's state.
    """
    cwd = os.getcwd()
    namespace = {"__name__": "__docs_snippet__"}
    try:
        with tempfile.TemporaryDirectory(prefix="isobar-docs-") as tmp:
            os.chdir(tmp)
            code = compile(snippet.source, snippet.label, "exec")
            exec(code, namespace)  # noqa: S102 - executing our own docs
    except BaseException:
        return f"{snippet.label}: snippet raised\n{traceback.format_exc()}"
    finally:
        os.chdir(cwd)
    return None


def run(root: Path | str = ".", verbose: bool = False) -> list[str]:
    """Execute every runnable snippet; return failure lines."""
    failures = []
    for snippet in collect_snippets(root):
        failure = run_snippet(snippet)
        if failure is not None:
            failures.append(failure)
        if verbose:
            status = "FAIL" if failure else "ok"
            print(f"{status:4s} {snippet.label}", flush=True)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).parent.parent),
                        help="repository root to scan (default: repo root)")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--list", action="store_true",
                        help="list discovered snippets without running")
    args = parser.parse_args(argv)
    if args.list:
        for snippet in collect_snippets(args.root):
            print(f"{snippet.test_id}  ({snippet.label})")
        return 0
    failures = run(args.root, verbose=args.verbose)
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        print(f"{len(failures)} failing snippet(s)", file=sys.stderr)
        return 1
    n = len(collect_snippets(args.root))
    print(f"all {n} runnable docs snippets executed cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
