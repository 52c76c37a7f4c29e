"""Dead-definition guard: every function, method and class in ``repro``
must be referenced somewhere besides its own definition.

The scan is textual: a definition counts as used when its name occurs
as a whole word more often, across ``src``, ``tests``, ``benchmarks``,
``examples``, ``perfbench`` and ``docs``, than it is defined.  That is
deliberately generous (two methods sharing a name keep each other
alive), so a failure is always a real orphan.  Dunders are exempt (the
interpreter calls them), and so are definitions under a registering
decorator such as ``@register_sweep`` -- registration is the use.
Descriptor and memo decorators (``@property``, ``@classmethod``, ...)
register nothing, so they exempt nothing.

A second scan fails on a module-level import that its module never
uses.  It is per module and exact (the ``ast`` names the module loads,
plus names inside quoted annotations and ``__all__`` strings), and a
package ``__init__.py`` is exempt: importing there is re-exporting.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CORPUS_DIRS = ("src", "tests", "benchmarks", "examples", "perfbench", "docs")
CORPUS_SUFFIXES = {".py", ".md", ".json"}
#: Decorators that wrap a definition without registering it anywhere.
NON_REGISTERING = {"property", "classmethod", "staticmethod", "dataclass",
                   "lru_cache", "cached_property"}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _registered(node) -> bool:
    return any(_decorator_name(d) not in NON_REGISTERING
               for d in node.decorator_list)


def _definitions():
    """``(name, "path:line", checked)`` for every definition in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            yield (name, f"{path.relative_to(ROOT)}:{node.lineno}",
                   not dunder and not _registered(node))


def _word_counts() -> Counter:
    counts: Counter = Counter()
    for directory in CORPUS_DIRS:
        for path in (ROOT / directory).rglob("*"):
            if path.suffix in CORPUS_SUFFIXES and path.is_file():
                counts.update(
                    _WORD.findall(path.read_text(encoding="utf-8"))
                )
    return counts


def test_every_definition_is_referenced():
    counts = _word_counts()
    definitions = list(_definitions())
    # Word counts include each ``def``/``class`` line itself, so a name
    # is referenced only if it occurs more often than it is defined.
    defined = Counter(name for name, _site, _checked in definitions)
    dead = sorted(
        f"{site} {name}" for name, site, checked in definitions
        if checked and counts[name] <= defined[name]
    )
    assert not dead, (
        "defined but never referenced (delete them, or reference them "
        "from a test or doc):\n  " + "\n  ".join(dead)
    )


def _imported_names(tree: ast.Module):
    """``(name, line)`` bound by each import at module level.

    Imports nested in a top-level ``if``/``try`` (``TYPE_CHECKING``
    guards, optional dependencies) are module level too.
    """
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module) -> set:
    """Every name the module loads, including inside quoted annotations
    and ``__all__`` entries (string constants that parse as expressions)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name))
    return used


def test_every_module_level_import_is_used():
    # A package ``__init__.py`` imports to re-export, so it is exempt.
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used_names(tree)
        unused.extend(
            f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in _imported_names(tree) if name not in used
        )
    assert not unused, (
        "imported at module level but never used (delete the import):\n  "
        + "\n  ".join(unused)
    )
