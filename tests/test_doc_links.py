"""Every document reference in the tree resolves to a file that exists.

Scans the code and guides (``src/``, ``benchmarks/``, ``examples/``,
``docs/``) for Markdown links to ``.md`` files and for plain mentions
such as ``docs/TOPOLOGY.md`` or ``SWEEPS.md``.  A guide that is deleted
or renamed must take every pointer to it along; a docstring must not
cite a document that was never written.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples", "docs")

#: ``[text](target.md#anchor)`` -- the target, without the anchor.
MD_LINK = re.compile(r"\]\(([^)\s#]+\.md)(?:#[^)]*)?\)")
#: A bare mention: ``docs/X.md``, ``X.md`` or another relative path.
MD_MENTION = re.compile(r"(?<![\w./:-])((?:[\w-]+/)*[\w-]+\.md)\b")


def _scanned_files():
    for top in SCANNED:
        for path in sorted((REPO / top).rglob("*")):
            if path.suffix in (".py", ".md") and path.is_file():
                yield path


def _resolves(reference: str, source: Path) -> bool:
    """A mention may be relative to its file, the repo root or docs/."""
    return any(
        (base / reference).is_file()
        for base in (source.parent, REPO, REPO / "docs")
    )


def _dangling(pattern, sources):
    problems = []
    for path in sources:
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for match in pattern.finditer(line):
                reference = match.group(1)
                if "://" in reference:
                    continue
                if not _resolves(reference, path):
                    where = path.relative_to(REPO)
                    problems.append(f"{where}:{lineno}: {reference}")
    return problems


def test_markdown_links_in_docs_resolve():
    docs = sorted((REPO / "docs").glob("*.md"))
    assert docs, "no guides found under docs/"
    assert _dangling(MD_LINK, docs) == []


def test_document_mentions_resolve():
    assert _dangling(MD_MENTION, _scanned_files()) == []


@pytest.mark.parametrize("text, expected", [
    ("see docs/PARALLEL.md for the model", ["docs/PARALLEL.md"]),
    ("(see EXPERIMENTS.md).", ["EXPERIMENTS.md"]),
    ("[guide](TOPOLOGY.md#routing)", ["TOPOLOGY.md"]),
    ("https://example.org/page.md", []),
])
def test_mention_pattern(text, expected):
    assert [m.group(1) for m in MD_MENTION.finditer(text)] == expected
